//! Wire protocol: length-framed binary requests and responses.
//!
//! Every message on the wire is one *frame*: a little-endian `u32` payload
//! length followed by exactly that many payload bytes. The length prefix is
//! bounds-checked against the receiver's configured cap before any
//! allocation, and both sides read/write frames with full-length loops
//! (`read_exact`/`write_all`), so short reads and writes can never desync
//! the stream — a frame either arrives whole or the connection errors.
//!
//! The payload formats live in [`Request`] and [`Response`]; see the crate
//! docs for the field-by-field layout. All integers are little-endian;
//! table names are length-prefixed with a `u16`, keys/values with a `u32`.

use std::io::{self, Read, Write};
use std::ops::Bound;

use ssi_common::IsolationLevel;

/// Default frame-size cap (4 MiB) — large enough for a fat scan response,
/// small enough that a hostile length prefix cannot balloon allocation.
pub const DEFAULT_MAX_FRAME_BYTES: u32 = 4 << 20;

/// Transaction-handle value meaning "no interactive transaction": the
/// request runs in its own one-shot transaction that commits (or rolls
/// back) before the response is written.
pub const AUTOCOMMIT: u64 = 0;

// Request opcodes.
const OP_BEGIN: u8 = 0x01;
const OP_GET: u8 = 0x02;
const OP_PUT: u8 = 0x03;
const OP_DELETE: u8 = 0x04;
const OP_SCAN: u8 = 0x05;
const OP_COMMIT: u8 = 0x06;
const OP_ROLLBACK: u8 = 0x07;
const OP_CREATE_TABLE: u8 = 0x08;
const OP_METRICS: u8 = 0x09;
const OP_PING: u8 = 0x0a;
const OP_CREATE_INDEX: u8 = 0x0b;
const OP_INDEX_SCAN: u8 = 0x0c;

// Response status codes. 0 is success; everything else is a typed error.
const ST_OK: u8 = 0;

/// Typed error classes a response can carry. The client SDK surfaces these
/// so callers can distinguish a retryable abort from a catalog mistake or a
/// shedding server without parsing message strings.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Concurrency-control abort (write conflict, SSI unsafe, deadlock
    /// victim…). Retry in a fresh transaction.
    Aborted = 1,
    /// The named transaction handle is unknown, already committed, or
    /// already rolled back.
    TxnClosed = 2,
    /// No such table.
    NoSuchTable = 3,
    /// Table already exists.
    TableExists = 4,
    /// A lock wait exceeded the engine's configured limit.
    LockTimeout = 5,
    /// Engine-internal invariant violation.
    Internal = 6,
    /// Durability (WAL/checkpoint) failure; the commit may be applied in
    /// memory but its persistence is uncertain.
    Durability = 7,
    /// The database is degraded (read-only): writes fail fast.
    Degraded = 8,
    /// The database/server is closed or draining; no new work is accepted.
    Closed = 9,
    /// Admission control shed this request: the commit pipeline is
    /// saturated. Back off and retry.
    Busy = 10,
    /// The request frame was structurally invalid (unknown opcode,
    /// truncated fields).
    BadRequest = 11,
    /// The frame's length prefix exceeded the server's cap. The connection
    /// is closed after this response — the stream cannot be trusted.
    FrameTooLarge = 12,
}

impl ErrorCode {
    fn from_u8(code: u8) -> Option<ErrorCode> {
        Some(match code {
            1 => ErrorCode::Aborted,
            2 => ErrorCode::TxnClosed,
            3 => ErrorCode::NoSuchTable,
            4 => ErrorCode::TableExists,
            5 => ErrorCode::LockTimeout,
            6 => ErrorCode::Internal,
            7 => ErrorCode::Durability,
            8 => ErrorCode::Degraded,
            9 => ErrorCode::Closed,
            10 => ErrorCode::Busy,
            11 => ErrorCode::BadRequest,
            12 => ErrorCode::FrameTooLarge,
            _ => return None,
        })
    }

    /// True if the failed operation may be retried (fresh transaction for
    /// aborts, after backoff for busy).
    pub fn is_retryable(self) -> bool {
        matches!(
            self,
            ErrorCode::Aborted | ErrorCode::LockTimeout | ErrorCode::Busy
        )
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ErrorCode::Aborted => "aborted",
            ErrorCode::TxnClosed => "txn-closed",
            ErrorCode::NoSuchTable => "no-such-table",
            ErrorCode::TableExists => "table-exists",
            ErrorCode::LockTimeout => "lock-timeout",
            ErrorCode::Internal => "internal",
            ErrorCode::Durability => "durability",
            ErrorCode::Degraded => "degraded",
            ErrorCode::Closed => "closed",
            ErrorCode::Busy => "busy",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::FrameTooLarge => "frame-too-large",
        };
        f.write_str(s)
    }
}

/// Isolation-level wire encoding; `0xff` selects the server's default.
pub const ISO_DEFAULT: u8 = 0xff;

fn iso_to_wire(level: Option<IsolationLevel>) -> u8 {
    match level {
        None => ISO_DEFAULT,
        Some(IsolationLevel::ReadCommitted) => 0,
        Some(IsolationLevel::SnapshotIsolation) => 1,
        Some(IsolationLevel::StrictTwoPhaseLocking) => 2,
        Some(IsolationLevel::SerializableSnapshotIsolation) => 3,
    }
}

fn iso_from_wire(byte: u8) -> Result<Option<IsolationLevel>, DecodeError> {
    Ok(match byte {
        ISO_DEFAULT => None,
        0 => Some(IsolationLevel::ReadCommitted),
        1 => Some(IsolationLevel::SnapshotIsolation),
        2 => Some(IsolationLevel::StrictTwoPhaseLocking),
        3 => Some(IsolationLevel::SerializableSnapshotIsolation),
        _ => return Err(DecodeError("unknown isolation level")),
    })
}

/// A request frame payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Open an interactive transaction; the response carries the handle
    /// that names it on subsequent requests. `isolation: None` uses the
    /// server's default; `read_only` declares the transaction read-only
    /// (the engine may run it at plain SI per Sec. 3.8 configuration, in
    /// which case the isolation byte is advisory).
    Begin {
        isolation: Option<IsolationLevel>,
        read_only: bool,
    },
    /// Point read. `handle` is a [`Begin`](Request::Begin) handle or
    /// [`AUTOCOMMIT`].
    Get {
        handle: u64,
        table: String,
        key: Vec<u8>,
    },
    Put {
        handle: u64,
        table: String,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    Delete {
        handle: u64,
        table: String,
        key: Vec<u8>,
    },
    /// Range scan; bounds follow [`std::ops::Bound`], `limit == 0` means
    /// unlimited (subject to the response-frame cap).
    Scan {
        handle: u64,
        table: String,
        lower: Bound<Vec<u8>>,
        upper: Bound<Vec<u8>>,
        limit: u32,
    },
    Commit {
        handle: u64,
    },
    Rollback {
        handle: u64,
    },
    CreateTable {
        name: String,
    },
    /// Create a secondary index named `name` over `table`. `spec` is the
    /// [`ssi_storage::IndexKeySpec`] wire encoding (the same bytes the WAL
    /// logs); the server rejects undecodable specs as [`BadRequest`]
    /// (ErrorCode::BadRequest). Like `CreateTable`, runs outside any
    /// transaction.
    CreateIndex {
        name: String,
        table: String,
        unique: bool,
        spec: Vec<u8>,
    },
    /// Range scan over a secondary index; bounds are *raw index keys*
    /// (not entry bytes). Returns `(primary key, row value)` pairs in
    /// `(index key, primary key)` order. `limit == 0` means unlimited.
    IndexScan {
        handle: u64,
        index: String,
        lower: Bound<Vec<u8>>,
        upper: Bound<Vec<u8>>,
        limit: u32,
    },
    /// Prometheus-style metrics exposition (engine + server counters).
    Metrics,
    /// Liveness probe.
    Ping,
}

/// A response frame payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Success with no payload (put/delete/commit/rollback/create/ping).
    Ok,
    /// Success of a `Begin`: the transaction handle.
    Handle(u64),
    /// Success of a `Get`.
    Value(Option<Vec<u8>>),
    /// Success of a `Scan`: rows in key order.
    Rows(Vec<(Vec<u8>, Vec<u8>)>),
    /// Success of a `Metrics` request.
    Text(String),
    /// Typed failure.
    Err(ErrorCode, String),
}

/// Structural decode failure: the frame arrived whole (framing is intact)
/// but its payload is not a valid message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DecodeError(pub &'static str);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed frame: {}", self.0)
    }
}

// ---------------------------------------------------------------------------
// primitive encode/decode

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "table names are short");
    put_u16(out, s.len() as u16);
    out.extend_from_slice(s.as_bytes());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn put_bound(out: &mut Vec<u8>, b: &Bound<Vec<u8>>) {
    match b {
        Bound::Unbounded => out.push(0),
        Bound::Included(k) => {
            out.push(1);
            put_bytes(out, k);
        }
        Bound::Excluded(k) => {
            out.push(2);
            put_bytes(out, k);
        }
    }
}

/// Payload reader that checks every length against the remaining bytes, so
/// a hostile length field yields a typed decode error instead of a panic or
/// an oversized allocation.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.buf.len() - self.pos < n {
            return Err(DecodeError("field extends past frame end"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, DecodeError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| DecodeError("table name is not UTF-8"))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    fn bound(&mut self) -> Result<Bound<Vec<u8>>, DecodeError> {
        Ok(match self.u8()? {
            0 => Bound::Unbounded,
            1 => Bound::Included(self.bytes()?),
            2 => Bound::Excluded(self.bytes()?),
            _ => return Err(DecodeError("unknown bound tag")),
        })
    }

    fn finish(self) -> Result<(), DecodeError> {
        if self.pos != self.buf.len() {
            return Err(DecodeError("trailing bytes after message"));
        }
        Ok(())
    }
}

impl Request {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            Request::Begin {
                isolation,
                read_only,
            } => {
                out.push(OP_BEGIN);
                out.push(iso_to_wire(*isolation));
                out.push(*read_only as u8);
            }
            Request::Get { handle, table, key } => {
                out.push(OP_GET);
                put_u64(&mut out, *handle);
                put_str(&mut out, table);
                put_bytes(&mut out, key);
            }
            Request::Put {
                handle,
                table,
                key,
                value,
            } => {
                out.push(OP_PUT);
                put_u64(&mut out, *handle);
                put_str(&mut out, table);
                put_bytes(&mut out, key);
                put_bytes(&mut out, value);
            }
            Request::Delete { handle, table, key } => {
                out.push(OP_DELETE);
                put_u64(&mut out, *handle);
                put_str(&mut out, table);
                put_bytes(&mut out, key);
            }
            Request::Scan {
                handle,
                table,
                lower,
                upper,
                limit,
            } => {
                out.push(OP_SCAN);
                put_u64(&mut out, *handle);
                put_str(&mut out, table);
                put_bound(&mut out, lower);
                put_bound(&mut out, upper);
                put_u32(&mut out, *limit);
            }
            Request::Commit { handle } => {
                out.push(OP_COMMIT);
                put_u64(&mut out, *handle);
            }
            Request::Rollback { handle } => {
                out.push(OP_ROLLBACK);
                put_u64(&mut out, *handle);
            }
            Request::CreateTable { name } => {
                out.push(OP_CREATE_TABLE);
                put_str(&mut out, name);
            }
            Request::CreateIndex {
                name,
                table,
                unique,
                spec,
            } => {
                out.push(OP_CREATE_INDEX);
                put_str(&mut out, name);
                put_str(&mut out, table);
                out.push(*unique as u8);
                put_bytes(&mut out, spec);
            }
            Request::IndexScan {
                handle,
                index,
                lower,
                upper,
                limit,
            } => {
                out.push(OP_INDEX_SCAN);
                put_u64(&mut out, *handle);
                put_str(&mut out, index);
                put_bound(&mut out, lower);
                put_bound(&mut out, upper);
                put_u32(&mut out, *limit);
            }
            Request::Metrics => out.push(OP_METRICS),
            Request::Ping => out.push(OP_PING),
        }
        out
    }

    /// Decodes a frame payload, rejecting structurally invalid input with a
    /// typed error (never panicking, never allocating past the frame).
    pub fn decode(buf: &[u8]) -> Result<Request, DecodeError> {
        let mut r = Reader::new(buf);
        let req = match r.u8()? {
            OP_BEGIN => Request::Begin {
                isolation: iso_from_wire(r.u8()?)?,
                read_only: r.u8()? != 0,
            },
            OP_GET => Request::Get {
                handle: r.u64()?,
                table: r.str()?,
                key: r.bytes()?,
            },
            OP_PUT => Request::Put {
                handle: r.u64()?,
                table: r.str()?,
                key: r.bytes()?,
                value: r.bytes()?,
            },
            OP_DELETE => Request::Delete {
                handle: r.u64()?,
                table: r.str()?,
                key: r.bytes()?,
            },
            OP_SCAN => Request::Scan {
                handle: r.u64()?,
                table: r.str()?,
                lower: r.bound()?,
                upper: r.bound()?,
                limit: r.u32()?,
            },
            OP_COMMIT => Request::Commit { handle: r.u64()? },
            OP_ROLLBACK => Request::Rollback { handle: r.u64()? },
            OP_CREATE_TABLE => Request::CreateTable { name: r.str()? },
            OP_CREATE_INDEX => Request::CreateIndex {
                name: r.str()?,
                table: r.str()?,
                unique: match r.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(DecodeError("unknown unique flag")),
                },
                spec: r.bytes()?,
            },
            OP_INDEX_SCAN => Request::IndexScan {
                handle: r.u64()?,
                index: r.str()?,
                lower: r.bound()?,
                upper: r.bound()?,
                limit: r.u32()?,
            },
            OP_METRICS => Request::Metrics,
            OP_PING => Request::Ping,
            _ => return Err(DecodeError("unknown opcode")),
        };
        r.finish()?;
        Ok(req)
    }
}

// Response payload tags (first byte is the status; ST_OK is followed by a
// kind tag so the payload is self-describing under pipelining).
const OK_EMPTY: u8 = 0;
const OK_HANDLE: u8 = 1;
const OK_VALUE: u8 = 2;
const OK_ROWS: u8 = 3;
const OK_TEXT: u8 = 4;

impl Response {
    /// Encodes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        match self {
            Response::Ok => {
                out.push(ST_OK);
                out.push(OK_EMPTY);
            }
            Response::Handle(h) => {
                out.push(ST_OK);
                out.push(OK_HANDLE);
                put_u64(&mut out, *h);
            }
            Response::Value(v) => {
                out.push(ST_OK);
                out.push(OK_VALUE);
                match v {
                    None => out.push(0),
                    Some(v) => {
                        out.push(1);
                        put_bytes(&mut out, v);
                    }
                }
            }
            Response::Rows(rows) => {
                out.push(ST_OK);
                out.push(OK_ROWS);
                put_u32(&mut out, rows.len() as u32);
                for (k, v) in rows {
                    put_bytes(&mut out, k);
                    put_bytes(&mut out, v);
                }
            }
            Response::Text(s) => {
                out.push(ST_OK);
                out.push(OK_TEXT);
                put_bytes(&mut out, s.as_bytes());
            }
            Response::Err(code, msg) => {
                out.push(*code as u8);
                put_bytes(&mut out, msg.as_bytes());
            }
        }
        out
    }

    /// Decodes a frame payload.
    pub fn decode(buf: &[u8]) -> Result<Response, DecodeError> {
        let mut r = Reader::new(buf);
        let status = r.u8()?;
        let resp = if status == ST_OK {
            match r.u8()? {
                OK_EMPTY => Response::Ok,
                OK_HANDLE => Response::Handle(r.u64()?),
                OK_VALUE => match r.u8()? {
                    0 => Response::Value(None),
                    1 => Response::Value(Some(r.bytes()?)),
                    _ => return Err(DecodeError("unknown value presence tag")),
                },
                OK_ROWS => {
                    let n = r.u32()? as usize;
                    let mut rows = Vec::with_capacity(n.min(1024));
                    for _ in 0..n {
                        rows.push((r.bytes()?, r.bytes()?));
                    }
                    Response::Rows(rows)
                }
                OK_TEXT => {
                    let bytes = r.bytes()?;
                    Response::Text(
                        String::from_utf8(bytes).map_err(|_| DecodeError("text is not UTF-8"))?,
                    )
                }
                _ => return Err(DecodeError("unknown ok tag")),
            }
        } else {
            let code =
                ErrorCode::from_u8(status).ok_or(DecodeError("unknown error status code"))?;
            let msg = r.bytes()?;
            Response::Err(
                code,
                String::from_utf8(msg).map_err(|_| DecodeError("error message is not UTF-8"))?,
            )
        };
        r.finish()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------------
// frame I/O

/// Failure reading a frame.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying stream failed (or closed mid-frame).
    Io(io::Error),
    /// The length prefix exceeded the receiver's cap. Nothing past the
    /// prefix has been consumed; the stream is no longer trustworthy.
    TooLarge { len: u32, max: u32 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
            FrameError::TooLarge { len, max } => {
                write!(f, "frame of {len} bytes exceeds the {max}-byte cap")
            }
        }
    }
}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one frame (length prefix + payload), flushing nothing — callers
/// batch pipelined frames and flush once.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame payload exceeds u32"))?;
    w.write_all(&len.to_le_bytes())?;
    w.write_all(payload)
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame boundary
/// (orderly disconnect); an EOF mid-frame is an error. The length prefix is
/// validated against `max` *before* any payload allocation.
pub fn read_frame(r: &mut impl Read, max: u32) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_buf = [0u8; 4];
    // Hand-rolled first read so a clean EOF before any byte is
    // distinguishable from a torn prefix.
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..]) {
            Ok(0) if filled == 0 => return Ok(None),
            Ok(0) => {
                return Err(FrameError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length prefix",
                )))
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > max {
        return Err(FrameError::TooLarge { len, max });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_req(req: Request) {
        let encoded = req.encode();
        assert_eq!(Request::decode(&encoded).unwrap(), req);
    }

    fn roundtrip_resp(resp: Response) {
        let encoded = resp.encode();
        assert_eq!(Response::decode(&encoded).unwrap(), resp);
    }

    #[test]
    fn requests_roundtrip() {
        roundtrip_req(Request::Begin {
            isolation: None,
            read_only: false,
        });
        roundtrip_req(Request::Begin {
            isolation: Some(IsolationLevel::SnapshotIsolation),
            read_only: true,
        });
        roundtrip_req(Request::Get {
            handle: 7,
            table: "accounts".into(),
            key: b"alice".to_vec(),
        });
        roundtrip_req(Request::Put {
            handle: AUTOCOMMIT,
            table: "t".into(),
            key: vec![0, 1, 2],
            value: vec![],
        });
        roundtrip_req(Request::Delete {
            handle: 1,
            table: "t".into(),
            key: b"k".to_vec(),
        });
        roundtrip_req(Request::Scan {
            handle: 2,
            table: "t".into(),
            lower: Bound::Included(b"a".to_vec()),
            upper: Bound::Excluded(b"z".to_vec()),
            limit: 100,
        });
        roundtrip_req(Request::Scan {
            handle: 2,
            table: "t".into(),
            lower: Bound::Unbounded,
            upper: Bound::Unbounded,
            limit: 0,
        });
        roundtrip_req(Request::Commit { handle: 3 });
        roundtrip_req(Request::Rollback { handle: 4 });
        roundtrip_req(Request::CreateTable { name: "x".into() });
        roundtrip_req(Request::CreateIndex {
            name: "accounts_by_owner".into(),
            table: "accounts".into(),
            unique: true,
            spec: vec![0x01, 0x00, 0xff],
        });
        roundtrip_req(Request::IndexScan {
            handle: 5,
            index: "accounts_by_owner".into(),
            lower: Bound::Included(b"a".to_vec()),
            upper: Bound::Unbounded,
            limit: 10,
        });
        roundtrip_req(Request::Metrics);
        roundtrip_req(Request::Ping);
    }

    #[test]
    fn create_index_rejects_bad_unique_flag() {
        let mut buf = Request::CreateIndex {
            name: "i".into(),
            table: "t".into(),
            unique: false,
            spec: vec![],
        }
        .encode();
        // name "i": 2+1 bytes; table "t": 2+1 bytes; unique flag follows.
        let flag_at = 1 + 3 + 3;
        assert_eq!(buf[flag_at], 0);
        buf[flag_at] = 2;
        assert!(Request::decode(&buf).is_err());
    }

    #[test]
    fn responses_roundtrip() {
        roundtrip_resp(Response::Ok);
        roundtrip_resp(Response::Handle(42));
        roundtrip_resp(Response::Value(None));
        roundtrip_resp(Response::Value(Some(b"v".to_vec())));
        roundtrip_resp(Response::Rows(vec![
            (b"a".to_vec(), b"1".to_vec()),
            (b"b".to_vec(), vec![]),
        ]));
        roundtrip_resp(Response::Text("ssi_up 1\n".into()));
        roundtrip_resp(Response::Err(ErrorCode::Busy, "shed".into()));
    }

    #[test]
    fn decode_rejects_garbage_without_panicking() {
        // Unknown opcode.
        assert!(Request::decode(&[0x7f]).is_err());
        // Empty frame.
        assert!(Request::decode(&[]).is_err());
        // Length field pointing past the end of the frame.
        let mut buf = vec![OP_GET];
        buf.extend_from_slice(&7u64.to_le_bytes());
        buf.extend_from_slice(&1000u16.to_le_bytes()); // table len 1000, no bytes
        assert!(Request::decode(&buf).is_err());
        // Trailing junk after a valid message.
        let mut buf = Request::Ping.encode();
        buf.push(0xaa);
        assert!(Request::decode(&buf).is_err());
        // Random bytes: must never panic, any Ok must re-encode cleanly.
        let mut state = 0x2545f4914f6cdd1du64;
        for len in 0..64usize {
            let mut buf = vec![0u8; len];
            for b in &mut buf {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                *b = state as u8;
            }
            let _ = Request::decode(&buf);
            let _ = Response::decode(&buf);
        }
    }

    #[test]
    fn frames_roundtrip_and_enforce_the_cap() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap().as_deref(),
            Some(b"hello".as_slice())
        );
        assert_eq!(
            read_frame(&mut cursor, 1024).unwrap().as_deref(),
            Some(b"".as_slice())
        );
        assert!(read_frame(&mut cursor, 1024).unwrap().is_none());

        // A hostile length prefix is rejected before allocation.
        let huge = (u32::MAX).to_le_bytes();
        let mut cursor = io::Cursor::new(huge.to_vec());
        match read_frame(&mut cursor, 1024) {
            Err(FrameError::TooLarge { len, max }) => {
                assert_eq!(len, u32::MAX);
                assert_eq!(max, 1024);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }

        // EOF inside the prefix is an error, not a clean end.
        let mut cursor = io::Cursor::new(vec![1, 0]);
        assert!(matches!(
            read_frame(&mut cursor, 1024),
            Err(FrameError::Io(_))
        ));
    }
}
