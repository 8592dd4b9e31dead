//! The TCP server: acceptor, per-connection workers, session registry,
//! idle-session reaper, admission control, graceful drain.
//!
//! See the crate docs for the architecture overview and the
//! connection-lifecycle contract (why no session can leak a transaction).

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use ssi_common::Error;
use ssi_core::{Database, Transaction};
use ssi_obs::ServerMetrics;

use crate::proto::{
    read_frame, write_frame, ErrorCode, FrameError, Request, Response, AUTOCOMMIT,
    DEFAULT_MAX_FRAME_BYTES,
};

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServerOptions {
    /// Address to bind; use port 0 to let the OS pick (the bound address is
    /// available from [`Server::local_addr`]).
    pub addr: SocketAddr,
    /// Maximum live sessions; connections beyond this are refused at accept
    /// time with a typed busy error.
    pub max_connections: usize,
    /// Frame-size cap applied to every inbound length prefix *before*
    /// allocation (see the crate docs, § Framing).
    pub max_frame_bytes: u32,
    /// Sessions idle longer than this have their open transactions rolled
    /// back and their connection closed by the reaper — a silently dead
    /// client must not pin the GC horizon or hold row/SIREAD locks forever.
    /// `None` disables reaping (not recommended outside tests).
    pub idle_timeout: Option<Duration>,
    /// Reaper wake cadence. Idle sessions are harvested at most this long
    /// after their timeout expires.
    pub reap_interval: Duration,
    /// Admission control: maximum requests allowed to be executing a commit
    /// (interactive or autocommit) at once. When the commit/flush pipeline
    /// backs up — commits stall on fsync and pile up here — further
    /// commit-carrying requests are shed with [`ErrorCode::Busy`] instead
    /// of queueing without bound.
    pub max_inflight_commits: usize,
}

impl Default for ServerOptions {
    fn default() -> Self {
        ServerOptions {
            addr: "127.0.0.1:0".parse().expect("valid literal addr"),
            max_connections: 1024,
            max_frame_bytes: DEFAULT_MAX_FRAME_BYTES,
            idle_timeout: Some(Duration::from_secs(60)),
            reap_interval: Duration::from_millis(100),
            max_inflight_commits: 256,
        }
    }
}

impl ServerOptions {
    /// Binds to the given address (e.g. `"127.0.0.1:0"`).
    pub fn with_addr(mut self, addr: SocketAddr) -> Self {
        self.addr = addr;
        self
    }

    /// Sets the idle-session timeout (see [`ServerOptions::idle_timeout`]).
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = Some(timeout);
        self
    }

    /// Sets the admission-control commit cap (see
    /// [`ServerOptions::max_inflight_commits`]).
    pub fn with_max_inflight_commits(mut self, cap: usize) -> Self {
        self.max_inflight_commits = cap;
        self
    }
}

/// Internal counters, mirrored into [`ServerMetrics`] on demand.
#[derive(Default)]
struct ServerStats {
    connections_accepted: AtomicU64,
    connections_rejected: AtomicU64,
    requests: AtomicU64,
    busy_rejections: AtomicU64,
    malformed_frames: AtomicU64,
    sessions_reaped: AtomicU64,
    disconnect_rollbacks: AtomicU64,
}

/// One client connection's server-side state. The transaction map is the
/// single owner of every open interactive transaction of the connection:
/// whoever drains it — the worker on request, the reaper on idle timeout,
/// the drain on shutdown, or the final session drop — rolls the survivors
/// back, so a transaction can never outlive its session.
struct Session {
    id: u64,
    /// Open interactive transactions by handle. Also the arbiter between
    /// the worker and the reaper: both operate under this lock, so a reap
    /// can never tear a transaction out from under a request.
    txns: Mutex<HashMap<u64, Transaction>>,
    /// Set by the reaper/drain after harvesting: the worker answers every
    /// later transactional request with a typed closed error.
    revoked: AtomicBool,
    /// Milliseconds since server start of the last request activity.
    last_active_ms: AtomicU64,
    /// A worker is between frame-decode and response-write. The reaper
    /// skips in-flight sessions regardless of timestamps.
    in_flight: AtomicBool,
    /// Clone of the connection's stream, kept so the reaper and the drain
    /// can unblock a worker parked in `read_frame`.
    stream: TcpStream,
}

impl Session {
    /// Rolls back and drops every open transaction, returning how many
    /// there were. Callers hold or take the `txns` lock via this method.
    fn harvest(&self) -> usize {
        let mut txns = self.txns.lock();
        let n = txns.len();
        // Dropping a Transaction rolls it back: versions unlinked, row and
        // SIREAD locks released, registry entry retired — the GC horizon
        // and begin-watermark advance past it.
        txns.clear();
        n
    }
}

const STATE_RUNNING: u8 = 0;
const STATE_DRAINING: u8 = 1;

struct Shared {
    db: Database,
    opts: ServerOptions,
    epoch: Instant,
    state: std::sync::atomic::AtomicU8,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    next_session: AtomicU64,
    stats: ServerStats,
    inflight_commits: AtomicUsize,
    /// Worker threads park their join handles here; `shutdown` joins them.
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Wakes the reaper early on shutdown.
    reaper_gate: Mutex<bool>,
    reaper_cv: Condvar,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn draining(&self) -> bool {
        self.state.load(Ordering::Acquire) != STATE_RUNNING
    }

    /// Point-in-time service-layer counters.
    fn server_metrics(&self) -> ServerMetrics {
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ServerMetrics {
            enabled: true,
            connections_accepted: load(&self.stats.connections_accepted),
            connections_rejected: load(&self.stats.connections_rejected),
            connections_active: self.sessions.lock().len() as u64,
            requests: load(&self.stats.requests),
            busy_rejections: load(&self.stats.busy_rejections),
            malformed_frames: load(&self.stats.malformed_frames),
            sessions_reaped: load(&self.stats.sessions_reaped),
            disconnect_rollbacks: load(&self.stats.disconnect_rollbacks),
        }
    }
}

/// A running TCP server over a [`Database`].
///
/// Dropping the server drains it (see [`Server::shutdown`]). The server
/// holds a `Database` handle for its whole lifetime, and `shutdown` joins
/// every worker before returning — so all server threads are guaranteed
/// gone *before* the last database handle drops and the engine closes.
pub struct Server {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    reaper: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving `db` with the given options.
    pub fn start(db: Database, opts: ServerOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(opts.addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db,
            opts,
            epoch: Instant::now(),
            state: std::sync::atomic::AtomicU8::new(STATE_RUNNING),
            sessions: Mutex::new(HashMap::new()),
            next_session: AtomicU64::new(1),
            stats: ServerStats::default(),
            inflight_commits: AtomicUsize::new(0),
            workers: Mutex::new(Vec::new()),
            reaper_gate: Mutex::new(false),
            reaper_cv: Condvar::new(),
        });
        let acceptor = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("ssi-server-acceptor".into())
                .spawn(move || accept_loop(shared, listener))
                .expect("spawn acceptor")
        };
        let reaper = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name("ssi-server-reaper".into())
                .spawn(move || reap_loop(shared))
                .expect("spawn reaper")
        };
        Ok(Server {
            shared,
            local_addr,
            acceptor: Some(acceptor),
            reaper: Some(reaper),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The database this server fronts.
    pub fn database(&self) -> &Database {
        &self.shared.db
    }

    /// Service-layer counters (also merged into the `Metrics` response).
    pub fn metrics(&self) -> ServerMetrics {
        self.shared.server_metrics()
    }

    /// Number of live sessions.
    pub fn session_count(&self) -> usize {
        self.shared.sessions.lock().len()
    }

    /// Gracefully drains and stops the server. Idempotent.
    ///
    /// Ordering:
    /// 1. Stop admitting: the state flips to draining, the acceptor is
    ///    woken and exits, late connections are refused.
    /// 2. Idle sessions (no request mid-execution) are harvested — their
    ///    open transactions roll back, their connections close.
    /// 3. Sessions executing a request are left to *finish* it: an
    ///    in-flight commit completes and its acknowledgement is written
    ///    before the worker observes the drain and exits. No acknowledged
    ///    commit is ever abandoned.
    /// 4. Every worker is joined, then the reaper. When this returns, no
    ///    server thread exists, no session survives, and no transaction
    ///    opened over the wire is still registered — the engine can be
    ///    closed or dropped safely.
    pub fn shutdown(&mut self) {
        self.shared.state.store(STATE_DRAINING, Ordering::Release);
        // Wake the acceptor out of `accept()` with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        // Harvest idle sessions; in-flight ones finish their request first
        // (the worker re-checks the drain state after every response).
        let sessions: Vec<Arc<Session>> = self.shared.sessions.lock().values().cloned().collect();
        for session in sessions {
            if !session.in_flight.load(Ordering::Acquire) {
                session.revoked.store(true, Ordering::Release);
                let rolled_back = session.harvest();
                if rolled_back > 0 {
                    self.shared
                        .stats
                        .disconnect_rollbacks
                        .fetch_add(rolled_back as u64, Ordering::Relaxed);
                }
                let _ = session.stream.shutdown(std::net::Shutdown::Both);
            }
        }
        // Join the workers. In-flight workers finish exactly one request;
        // idle workers wake from the stream shutdown above.
        loop {
            let workers: Vec<JoinHandle<()>> = std::mem::take(&mut *self.shared.workers.lock());
            if workers.is_empty() {
                break;
            }
            for w in workers {
                let _ = w.join();
            }
        }
        // Stop the reaper.
        {
            let mut stop = self.shared.reaper_gate.lock();
            *stop = true;
            self.shared.reaper_cv.notify_all();
        }
        if let Some(reaper) = self.reaper.take() {
            let _ = reaper.join();
        }
        debug_assert!(
            self.shared.sessions.lock().is_empty(),
            "drain left live sessions behind"
        );
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(shared: Arc<Shared>, listener: TcpListener) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(pair) => pair,
            Err(_) => {
                if shared.draining() {
                    return;
                }
                continue;
            }
        };
        if shared.draining() {
            // Refuse politely: one closed-error frame, then drop.
            refuse(stream, ErrorCode::Closed, "server is draining");
            return;
        }
        // Opportunistically reap finished workers so the handle vector
        // doesn't grow without bound under connection churn.
        {
            let mut workers = shared.workers.lock();
            let mut live = Vec::with_capacity(workers.len());
            for w in workers.drain(..) {
                if w.is_finished() {
                    let _ = w.join();
                } else {
                    live.push(w);
                }
            }
            *workers = live;
        }
        if shared.sessions.lock().len() >= shared.opts.max_connections {
            shared
                .stats
                .connections_rejected
                .fetch_add(1, Ordering::Relaxed);
            refuse(stream, ErrorCode::Busy, "connection limit reached");
            continue;
        }
        shared
            .stats
            .connections_accepted
            .fetch_add(1, Ordering::Relaxed);
        // Responses are small framed messages flushed one at a time; with
        // Nagle on, a pipelined batch of replies serializes on delayed
        // ACKs (~40ms each) instead of streaming back.
        stream.set_nodelay(true).ok();
        let id = shared.next_session.fetch_add(1, Ordering::Relaxed);
        let session = Arc::new(Session {
            id,
            txns: Mutex::new(HashMap::new()),
            revoked: AtomicBool::new(false),
            last_active_ms: AtomicU64::new(shared.now_ms()),
            in_flight: AtomicBool::new(false),
            stream: match stream.try_clone() {
                Ok(clone) => clone,
                Err(_) => {
                    // Without a reaper-accessible handle the session can't
                    // be force-closed; refuse rather than leak.
                    refuse(stream, ErrorCode::Internal, "stream clone failed");
                    continue;
                }
            },
        });
        shared.sessions.lock().insert(id, session.clone());
        let worker = {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("ssi-server-conn-{id}"))
                .spawn(move || serve_connection(shared, session, stream))
        };
        match worker {
            Ok(handle) => shared.workers.lock().push(handle),
            Err(_) => {
                // Spawn failure: undo the registration; dropping the
                // session closes the connection.
                shared.sessions.lock().remove(&id);
            }
        }
    }
}

/// Best-effort single error frame on a connection we will not serve.
fn refuse(stream: TcpStream, code: ErrorCode, msg: &str) {
    let mut w = BufWriter::new(&stream);
    let _ = write_frame(&mut w, &Response::Err(code, msg.to_string()).encode());
    let _ = w.flush();
}

fn reap_loop(shared: Arc<Shared>) {
    loop {
        {
            let mut stop = shared.reaper_gate.lock();
            if *stop {
                return;
            }
            shared
                .reaper_cv
                .wait_for(&mut stop, shared.opts.reap_interval);
            if *stop {
                return;
            }
        }
        let Some(timeout) = shared.opts.idle_timeout else {
            continue;
        };
        let timeout_ms = timeout.as_millis() as u64;
        let now = shared.now_ms();
        let sessions: Vec<Arc<Session>> = shared.sessions.lock().values().cloned().collect();
        for session in sessions {
            if session.in_flight.load(Ordering::Acquire) {
                continue;
            }
            let idle = now.saturating_sub(session.last_active_ms.load(Ordering::Relaxed));
            if idle < timeout_ms {
                continue;
            }
            if session.revoked.swap(true, Ordering::AcqRel) {
                continue; // already harvested by a previous pass or drain
            }
            // Harvest under the txns lock: a worker that just went
            // in-flight is either still waiting for this lock (it will see
            // `revoked` and answer with a typed error) or held it before us
            // (then `in_flight` was set and we skipped above).
            let rolled_back = session.harvest();
            shared.stats.sessions_reaped.fetch_add(1, Ordering::Relaxed);
            if rolled_back > 0 {
                shared
                    .stats
                    .disconnect_rollbacks
                    .fetch_add(rolled_back as u64, Ordering::Relaxed);
            }
            // Unblock the worker parked in read_frame; it observes the
            // closed stream and retires the session.
            let _ = session.stream.shutdown(std::net::Shutdown::Both);
        }
    }
}

fn serve_connection(shared: Arc<Shared>, session: Arc<Session>, stream: TcpStream) {
    let mut reader = std::io::BufReader::new(match stream.try_clone() {
        Ok(clone) => clone,
        Err(_) => {
            retire_session(&shared, &session);
            return;
        }
    });
    let mut writer = BufWriter::new(stream);
    loop {
        let payload = match read_frame(&mut reader, shared.opts.max_frame_bytes) {
            Ok(Some(payload)) => payload,
            // Clean disconnect at a frame boundary — or the reaper/drain
            // shut the stream down under us.
            Ok(None) => break,
            Err(FrameError::TooLarge { len, max }) => {
                shared
                    .stats
                    .malformed_frames
                    .fetch_add(1, Ordering::Relaxed);
                let resp = Response::Err(
                    ErrorCode::FrameTooLarge,
                    format!("frame of {len} bytes exceeds the {max}-byte cap"),
                );
                let _ = write_frame(&mut writer, &resp.encode());
                let _ = writer.flush();
                // The prefix promised bytes we refuse to read: the stream
                // is unsynchronizable. Close it.
                break;
            }
            Err(FrameError::Io(_)) => break,
        };
        session.in_flight.store(true, Ordering::Release);
        session
            .last_active_ms
            .store(shared.now_ms(), Ordering::Relaxed);
        shared.stats.requests.fetch_add(1, Ordering::Relaxed);
        let response = match Request::decode(&payload) {
            Ok(request) => handle_request(&shared, &session, request),
            Err(e) => {
                shared
                    .stats
                    .malformed_frames
                    .fetch_add(1, Ordering::Relaxed);
                // Framing is intact (the frame arrived whole); only the
                // payload was garbage. The connection stays usable.
                Response::Err(ErrorCode::BadRequest, e.to_string())
            }
        };
        let write_result = write_frame(&mut writer, &response.encode()).and_then(|()| {
            // One response per request frame: flush eagerly so a
            // non-pipelining client never stalls on a buffered reply.
            writer.flush()
        });
        session
            .last_active_ms
            .store(shared.now_ms(), Ordering::Relaxed);
        session.in_flight.store(false, Ordering::Release);
        if write_result.is_err() {
            break;
        }
        if shared.draining() {
            // The request in flight at drain time — possibly a commit whose
            // acknowledgement was just flushed — is complete; stop here.
            break;
        }
    }
    retire_session(&shared, &session);
}

/// Removes the session from the registry and rolls back whatever open
/// transactions it still owns. This is the disconnect bug-net: every worker
/// exit path funnels through here, so a vanished client can never leave an
/// active transaction pinning the begin-watermark/GC horizon or holding row
/// and SIREAD locks.
fn retire_session(shared: &Shared, session: &Session) {
    shared.sessions.lock().remove(&session.id);
    let rolled_back = session.harvest();
    if rolled_back > 0 {
        shared
            .stats
            .disconnect_rollbacks
            .fetch_add(rolled_back as u64, Ordering::Relaxed);
    }
}

/// RAII admission slot for commit-carrying requests.
struct CommitSlot<'a>(&'a Shared);

impl<'a> CommitSlot<'a> {
    /// Claims a slot, or sheds with `None` when the commit pipeline is
    /// saturated (`max_inflight_commits` requests already committing —
    /// which is what a backed-up flush queue looks like from here, since
    /// group-commit holds committers until their fsync lands).
    fn try_claim(shared: &'a Shared) -> Option<CommitSlot<'a>> {
        let cap = shared.opts.max_inflight_commits;
        let mut current = shared.inflight_commits.load(Ordering::Relaxed);
        loop {
            if current >= cap {
                shared.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            match shared.inflight_commits.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Some(CommitSlot(shared)),
                Err(observed) => current = observed,
            }
        }
    }
}

impl Drop for CommitSlot<'_> {
    fn drop(&mut self) {
        self.0.inflight_commits.fetch_sub(1, Ordering::AcqRel);
    }
}

fn error_response(e: &Error) -> Response {
    let code = match e {
        Error::Aborted { .. } => ErrorCode::Aborted,
        Error::TransactionClosed => ErrorCode::TxnClosed,
        Error::NoSuchTable(_) => ErrorCode::NoSuchTable,
        Error::TableExists(_) => ErrorCode::TableExists,
        Error::LockTimeout => ErrorCode::LockTimeout,
        Error::Internal(_) => ErrorCode::Internal,
        Error::Durability(_) => ErrorCode::Durability,
        Error::Degraded(_) => ErrorCode::Degraded,
        Error::Closed => ErrorCode::Closed,
    };
    Response::Err(code, e.to_string())
}

fn busy() -> Response {
    Response::Err(
        ErrorCode::Busy,
        "commit pipeline saturated; retry after backoff".to_string(),
    )
}

fn revoked() -> Response {
    Response::Err(
        ErrorCode::Closed,
        "session was revoked (idle timeout or server drain)".to_string(),
    )
}

fn handle_request(shared: &Shared, session: &Session, request: Request) -> Response {
    let db = &shared.db;
    match request {
        Request::Begin {
            isolation,
            read_only,
        } => {
            if shared.draining() {
                return Response::Err(ErrorCode::Closed, "server is draining".to_string());
            }
            let mut txns = session.txns.lock();
            if session.revoked.load(Ordering::Acquire) {
                return revoked();
            }
            let txn = if read_only {
                // Read-only declarations route through the engine's
                // dedicated entry point (it may downgrade SSI to SI per
                // configuration); check closedness first by hand.
                if db.health() == ssi_core::DbHealth::Closed {
                    return error_response(&Error::Closed);
                }
                db.begin_read_only()
            } else {
                let result = match isolation {
                    Some(level) => db.try_begin_with(level),
                    None => db.try_begin(),
                };
                match result {
                    Ok(txn) => txn,
                    Err(e) => return error_response(&e),
                }
            };
            // Handles are per-session and never reused; the transaction id
            // itself stays engine-internal.
            let handle = txn.id().0;
            txns.insert(handle, txn);
            Response::Handle(handle)
        }
        Request::Get { handle, table, key } => with_txn(shared, session, handle, false, |txn| {
            let table = db.table(&table)?;
            txn.get(&table, &key)
                .map(|v| Response::Value(v.map(|bytes| bytes.as_ref().to_vec())))
        }),
        Request::Put {
            handle,
            table,
            key,
            value,
        } => with_txn(shared, session, handle, true, |txn| {
            let table = db.table(&table)?;
            txn.put(&table, &key, &value).map(|()| Response::Ok)
        }),
        Request::Delete { handle, table, key } => with_txn(shared, session, handle, true, |txn| {
            let table = db.table(&table)?;
            txn.delete(&table, &key).map(|()| Response::Ok)
        }),
        Request::Scan {
            handle,
            table,
            lower,
            upper,
            limit,
        } => with_txn(shared, session, handle, false, |txn| {
            let table = db.table(&table)?;
            fn as_ref(b: &Bound<Vec<u8>>) -> Bound<&[u8]> {
                match b {
                    Bound::Unbounded => Bound::Unbounded,
                    Bound::Included(k) => Bound::Included(k.as_slice()),
                    Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
                }
            }
            let mut rows = txn.scan(&table, as_ref(&lower), as_ref(&upper))?;
            if limit != 0 && rows.len() > limit as usize {
                rows.truncate(limit as usize);
            }
            Ok(Response::Rows(
                rows.into_iter()
                    .map(|(k, v)| (k, v.as_ref().to_vec()))
                    .collect(),
            ))
        }),
        Request::Commit { handle } => {
            let Some(_slot) = CommitSlot::try_claim(shared) else {
                return busy();
            };
            let txn = {
                let mut txns = session.txns.lock();
                if session.revoked.load(Ordering::Acquire) {
                    return revoked();
                }
                match txns.remove(&handle) {
                    Some(txn) => txn,
                    None => {
                        return Response::Err(
                            ErrorCode::TxnClosed,
                            format!("unknown transaction handle {handle}"),
                        )
                    }
                }
            };
            match txn.commit() {
                Ok(()) => Response::Ok,
                Err(e) => error_response(&e),
            }
        }
        Request::Rollback { handle } => {
            let mut txns = session.txns.lock();
            match txns.remove(&handle) {
                Some(txn) => {
                    txn.rollback();
                    Response::Ok
                }
                None => Response::Err(
                    ErrorCode::TxnClosed,
                    format!("unknown transaction handle {handle}"),
                ),
            }
        }
        Request::CreateTable { name } => match db.create_table(&name) {
            Ok(_) => Response::Ok,
            Err(e) => error_response(&e),
        },
        Request::CreateIndex {
            name,
            table,
            unique,
            spec,
        } => {
            let Some(spec) = ssi_core::IndexKeySpec::decode(&spec) else {
                return Response::Err(
                    ErrorCode::BadRequest,
                    "undecodable index key spec".to_string(),
                );
            };
            let table = match db.table(&table) {
                Ok(table) => table,
                Err(e) => return error_response(&e),
            };
            match db.create_index(&name, &table, unique, spec) {
                Ok(_) => Response::Ok,
                Err(e) => error_response(&e),
            }
        }
        Request::IndexScan {
            handle,
            index,
            lower,
            upper,
            limit,
        } => with_txn(shared, session, handle, false, |txn| {
            let index = db.index(&index)?;
            fn as_ref(b: &Bound<Vec<u8>>) -> Bound<&[u8]> {
                match b {
                    Bound::Unbounded => Bound::Unbounded,
                    Bound::Included(k) => Bound::Included(k.as_slice()),
                    Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
                }
            }
            let mut rows = txn.index_scan(&index, as_ref(&lower), as_ref(&upper))?;
            if limit != 0 && rows.len() > limit as usize {
                rows.truncate(limit as usize);
            }
            Ok(Response::Rows(
                rows.into_iter()
                    .map(|(k, v)| (k, v.as_ref().to_vec()))
                    .collect(),
            ))
        }),
        Request::Metrics => {
            let mut snapshot = db.metrics();
            snapshot.server = shared.server_metrics();
            Response::Text(snapshot.render_text())
        }
        Request::Ping => Response::Ok,
    }
}

/// Runs `body` against the handle's transaction (or a one-shot autocommit
/// transaction for [`AUTOCOMMIT`]). Interactive handles whose transaction
/// aborted inside `body` are removed from the session map — the engine has
/// already rolled them back, so keeping the husk would only turn later
/// requests into confusing `TxnClosed` errors after a commit "worked".
fn with_txn(
    shared: &Shared,
    session: &Session,
    handle: u64,
    writes: bool,
    body: impl FnOnce(&mut Transaction) -> Result<Response, Error>,
) -> Response {
    if handle == AUTOCOMMIT {
        // One-shot: begin, run, commit — shed at the door when the commit
        // pipeline is saturated and the operation will need a commit slot.
        let _slot = if writes {
            match CommitSlot::try_claim(shared) {
                Some(slot) => Some(slot),
                None => return busy(),
            }
        } else {
            None
        };
        let mut txn = match shared.db.try_begin() {
            Ok(txn) => txn,
            Err(e) => return error_response(&e),
        };
        let response = match body(&mut txn) {
            Ok(response) => response,
            Err(e) => return error_response(&e),
        };
        match txn.commit() {
            Ok(()) => response,
            Err(e) => error_response(&e),
        }
    } else {
        let mut txns = session.txns.lock();
        if session.revoked.load(Ordering::Acquire) {
            return revoked();
        }
        let Some(txn) = txns.get_mut(&handle) else {
            return Response::Err(
                ErrorCode::TxnClosed,
                format!("unknown transaction handle {handle}"),
            );
        };
        match body(txn) {
            Ok(response) => response,
            Err(e) => {
                if !txn.is_active() {
                    txns.remove(&handle);
                }
                error_response(&e)
            }
        }
    }
}
