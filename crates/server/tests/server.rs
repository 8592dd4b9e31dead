//! End-to-end tests over real TCP connections: protocol correctness, SSI
//! semantics across connections, pipelining, admission control, the
//! connection-lifecycle bug net (disconnects, idle reaping), frame abuse,
//! and the graceful-drain durability contract.

use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ssi_common::IsolationLevel;
use ssi_core::{Database, Durability, Options};
use ssi_server::proto::{write_frame, Request, Response};
use ssi_server::{Client, ErrorCode, Server, ServerOptions};

static NEXT_DIR: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let n = NEXT_DIR.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("ssi-server-test-{}-{tag}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(db: Database) -> Server {
    Server::start(db, ServerOptions::default()).expect("bind server")
}

fn connect(server: &Server) -> Client {
    Client::connect(server.local_addr()).expect("connect")
}

/// Polls until `cond` holds or the deadline passes.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn autocommit_roundtrip_and_metrics() {
    let server = start(Database::open_default());
    let mut c = connect(&server);
    c.ping().unwrap();
    c.create_table("t").unwrap();
    assert_eq!(c.get("t", b"k").unwrap(), None);
    c.put("t", b"k", b"v").unwrap();
    assert_eq!(c.get("t", b"k").unwrap(), Some(b"v".to_vec()));
    c.delete("t", b"k").unwrap();
    assert_eq!(c.get("t", b"k").unwrap(), None);

    // Typed errors come back typed.
    let err = c.get("missing", b"k").unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::NoSuchTable));
    let err = c.create_table("t").unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::TableExists));

    // The metrics response is the engine snapshot plus the server overlay.
    let text = c.metrics_text().unwrap();
    assert!(text.contains("ssi_server_enabled 1"), "{text}");
    assert!(
        text.contains("ssi_server_connections_accepted_total"),
        "{text}"
    );
    assert!(text.contains("ssi_txn_started_total"), "{text}");
}

#[test]
fn interactive_transaction_spans_requests_and_connections_are_isolated() {
    let server = start(Database::open_default());
    let mut writer = connect(&server);
    let mut reader = connect(&server);
    writer.create_table("t").unwrap();

    let mut txn = writer.begin().unwrap();
    txn.put("t", b"a", b"1").unwrap();
    // Own write visible inside the transaction…
    assert_eq!(txn.get("t", b"a").unwrap(), Some(b"1".to_vec()));
    // …but not to another connection before commit.
    assert_eq!(reader.get("t", b"a").unwrap(), None);
    txn.commit().unwrap();
    assert_eq!(reader.get("t", b"a").unwrap(), Some(b"1".to_vec()));

    // Rollback really rolls back.
    let mut txn = writer.begin().unwrap();
    txn.put("t", b"b", b"2").unwrap();
    txn.rollback().unwrap();
    assert_eq!(reader.get("t", b"b").unwrap(), None);

    // Scans work over the wire, limit applies.
    let mut txn = writer.begin_read_only().unwrap();
    let rows = txn
        .scan(
            "t",
            std::ops::Bound::Unbounded,
            std::ops::Bound::Unbounded,
            0,
        )
        .unwrap();
    assert_eq!(rows, vec![(b"a".to_vec(), b"1".to_vec())]);
    txn.rollback().unwrap();
}

#[test]
fn write_skew_pair_over_two_connections_aborts_one_under_ssi() {
    let db = Database::open(
        Options::default().with_isolation(IsolationLevel::SerializableSnapshotIsolation),
    );
    let server = start(db);
    let mut setup = connect(&server);
    setup.create_table("t").unwrap();
    setup.put("t", b"x", b"1").unwrap();
    setup.put("t", b"y", b"1").unwrap();

    // Classic write skew: each transaction reads both rows and writes the
    // one the other read. Under SI both commit; under SSI the dangerous
    // structure must cost at least one of them an abort.
    let mut c1 = connect(&server);
    let mut c2 = connect(&server);
    let mut t1 = c1
        .begin_with(IsolationLevel::SerializableSnapshotIsolation)
        .unwrap();
    let mut t2 = c2
        .begin_with(IsolationLevel::SerializableSnapshotIsolation)
        .unwrap();
    // Interleave the reads: snapshot acquisition is deferred to the first
    // operation, so this is what makes the two transactions concurrent.
    t1.get("t", b"x").unwrap();
    t2.get("t", b"x").unwrap();
    t1.get("t", b"y").unwrap();
    t2.get("t", b"y").unwrap();
    let r1 = t1.put("t", b"x", b"0").and_then(|()| t1.commit());
    let r2 = t2.put("t", b"y", b"0").and_then(|()| t2.commit());

    let aborted = [&r1, &r2]
        .iter()
        .filter(|r| matches!(r, Err(e) if e.code() == Some(ErrorCode::Aborted)))
        .count();
    assert!(
        aborted >= 1,
        "write skew committed on both connections: {r1:?} / {r2:?}"
    );
    assert!(
        r1.is_ok() || r2.is_ok(),
        "both sides aborted: {r1:?} / {r2:?}"
    );
}

#[test]
fn pipelined_batches_answer_in_request_order() {
    let server = start(Database::open_default());
    connect(&server).create_table("t").unwrap();

    // Queue a whole batch before reading anything: an interactive begin,
    // N puts against a handle we predict? No — handles are server-chosen,
    // so pipeline autocommit puts and then the reads that depend on them.
    // CONNECTIONS clients do so at once, each over keys of its own.
    const CONNECTIONS: usize = 32;
    const N: usize = 64;
    std::thread::scope(|s| {
        for conn in 0..CONNECTIONS {
            let mut c = connect(&server);
            s.spawn(move || {
                let key = |i: usize| format!("c{conn:02}-k{i:03}").into_bytes();
                for i in 0..N {
                    c.send(&Request::Put {
                        handle: ssi_server::AUTOCOMMIT,
                        table: "t".to_string(),
                        key: key(i),
                        value: format!("v{conn}-{i}").into_bytes(),
                    })
                    .unwrap();
                }
                for i in 0..N {
                    c.send(&Request::Get {
                        handle: ssi_server::AUTOCOMMIT,
                        table: "t".to_string(),
                        key: key(i),
                    })
                    .unwrap();
                }
                c.flush().unwrap();
                // Responses arrive strictly in request order: N oks, then N
                // values.
                for i in 0..N {
                    match c.recv().unwrap() {
                        Response::Ok => {}
                        other => panic!("connection {conn}: put #{i} answered {other:?}"),
                    }
                }
                for i in 0..N {
                    match c.recv().unwrap() {
                        Response::Value(Some(v)) => {
                            assert_eq!(v, format!("v{conn}-{i}").into_bytes())
                        }
                        other => panic!("connection {conn}: get #{i} answered {other:?}"),
                    }
                }
            });
        }
    });
}

#[test]
fn admission_control_sheds_commit_carrying_requests_with_busy() {
    let db = Database::open_default();
    db.create_table("t").unwrap();
    let server =
        Server::start(db, ServerOptions::default().with_max_inflight_commits(0)).expect("bind");
    let mut c = connect(&server);

    // Autocommit writes need a commit slot: shed.
    let err = c.put("t", b"k", b"v").unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Busy));
    assert!(err.is_retryable());

    // Interactive work is unaffected until the commit itself: the buffered
    // put needs no slot, the commit does and is shed.
    let mut txn = c.begin().unwrap();
    txn.put("t", b"k2", b"v").unwrap();
    let err = txn.commit().unwrap_err();
    assert_eq!(err.code(), Some(ErrorCode::Busy));

    // Reads don't need a commit slot.
    assert_eq!(c.get("t", b"k2").unwrap(), None);
    assert!(server.metrics().busy_rejections >= 2);
}

#[test]
fn dropped_connection_rolls_back_its_transaction_and_unpins_the_gc_horizon() {
    let db = Database::open(
        Options::default().with_isolation(IsolationLevel::SerializableSnapshotIsolation),
    );
    let server = start(db.clone());
    let mut setup = connect(&server);
    setup.create_table("t").unwrap();
    setup.put("t", b"k", b"v0").unwrap();

    let registry_before = db.transaction_manager().registry_len();

    // Open a transaction that has both read and written, then vanish
    // without commit/rollback — simulating a crashed client.
    let mut doomed = connect(&server);
    let mut txn = doomed.begin().unwrap();
    txn.get("t", b"k").unwrap();
    txn.put("t", b"k", b"leaked?").unwrap();
    let pinned_horizon = db.transaction_manager().gc_horizon();
    std::mem::forget(txn); // suppress the client-side rollback-on-drop
    drop(doomed); // TCP FIN mid-transaction

    // The worker notices the disconnect and rolls the transaction back.
    wait_for("disconnect rollback", || {
        server.metrics().disconnect_rollbacks >= 1
    });
    wait_for("registry to drain", || {
        db.transaction_manager().registry_len() <= registry_before
    });

    // The write lock is released: another connection can write the key
    // (first-committer-wins would abort us if the dead txn's write were
    // still in flight, and its lock would block us).
    let mut alive = connect(&server);
    alive.put("t", b"k", b"v1").unwrap();
    assert_eq!(alive.get("t", b"k").unwrap(), Some(b"v1".to_vec()));

    // And the GC horizon advances past the dropped transaction's snapshot
    // instead of staying pinned at it forever.
    wait_for("gc horizon to advance", || {
        db.transaction_manager().gc_horizon() > pinned_horizon
    });
}

#[test]
fn idle_reaper_harvests_abandoned_sessions() {
    let db = Database::open_default();
    db.create_table("t").unwrap();
    let opts = ServerOptions::default().with_idle_timeout(Duration::from_millis(50));
    let server = Server::start(db.clone(), opts).expect("bind");

    let mut c = connect(&server);
    let mut txn = c.begin().unwrap();
    txn.put("t", b"k", b"v").unwrap();
    let registry_with_txn = db.transaction_manager().registry_len();
    assert!(registry_with_txn >= 1);

    // Go silent past the idle timeout: the reaper rolls the transaction
    // back and closes the connection.
    wait_for("reap", || server.metrics().sessions_reaped >= 1);
    wait_for("registry drain", || {
        db.transaction_manager().registry_len() < registry_with_txn
    });

    // The revoked session answers transactional work with a typed error
    // (or the connection is already observed dead — both are clean).
    match txn.get("t", b"k") {
        Err(e) => assert!(
            e.code() == Some(ErrorCode::Closed) || matches!(e, ssi_server::ClientError::Io(_)),
            "unexpected error after reap: {e}"
        ),
        Ok(_) => panic!("reaped session still served a transactional read"),
    }
    std::mem::forget(txn); // connection is dead; skip the drop rollback
}

#[test]
fn malformed_payloads_get_bad_request_and_the_connection_survives() {
    let server = start(Database::open_default());
    use std::io::Write as _;
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());

    // A whole frame whose payload is garbage (unknown opcode): the server
    // answers with a typed bad-request error on the same connection.
    write_frame(&mut stream, &[0xEE, 1, 2, 3]).unwrap();
    stream.flush().unwrap();
    let payload = ssi_server::proto::read_frame(&mut reader, 1 << 20)
        .unwrap()
        .expect("error response");
    match Response::decode(&payload).unwrap() {
        Response::Err(ErrorCode::BadRequest, _) => {}
        other => panic!("expected bad-request, got {other:?}"),
    }

    // Framing stayed aligned: the very same connection serves a valid
    // request afterwards.
    write_frame(&mut stream, &Request::Ping.encode()).unwrap();
    stream.flush().unwrap();
    let payload = ssi_server::proto::read_frame(&mut reader, 1 << 20)
        .unwrap()
        .expect("pong");
    assert!(matches!(Response::decode(&payload).unwrap(), Response::Ok));
    assert!(server.metrics().malformed_frames >= 1);
}

#[test]
fn oversized_frames_are_rejected_before_allocation_and_close_the_stream() {
    let db = Database::open_default();
    let server = Server::start(
        db,
        ServerOptions {
            max_frame_bytes: 1024,
            ..ServerOptions::default()
        },
    )
    .expect("bind");

    use std::io::{Read as _, Write as _};
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    // Length prefix far beyond the cap; no payload follows (the server
    // must not try to read or allocate it).
    stream.write_all(&u32::MAX.to_le_bytes()).unwrap();
    stream.flush().unwrap();
    // One frame-too-large error frame comes back, then EOF.
    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
    let payload = ssi_server::proto::read_frame(&mut reader, 1 << 20)
        .unwrap()
        .expect("error frame before close");
    match Response::decode(&payload).unwrap() {
        Response::Err(ErrorCode::FrameTooLarge, _) => {}
        other => panic!("expected frame-too-large, got {other:?}"),
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "stream should close after the error frame");
}

#[test]
fn garbage_byte_storms_never_take_the_server_down() {
    let server = start(Database::open_default());
    let mut seed = 0x9E3779B97F4A7C15u64;
    let mut next = move || {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        seed
    };
    use std::io::Write as _;
    for _ in 0..32 {
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        let len = (next() % 512) as usize;
        let junk: Vec<u8> = (0..len).map(|_| next() as u8).collect();
        // Raw junk — not even a valid length prefix is guaranteed.
        let _ = stream.write_all(&junk);
        let _ = stream.flush();
        drop(stream);
    }
    // The server survives and still serves real clients.
    let mut c = connect(&server);
    c.ping().unwrap();
    c.create_table("t").unwrap();
    c.put("t", b"k", b"v").unwrap();
    assert_eq!(c.get("t", b"k").unwrap(), Some(b"v".to_vec()));
    // Every dead connection was retired; no session leaked.
    wait_for("sessions to retire", || server.session_count() <= 1);
}

#[test]
fn graceful_drain_loses_no_acknowledged_commit_and_leaks_no_session() {
    let dir = temp_dir("drain");
    let db = Database::open(Options::default().with_durability(Durability::GroupCommit, &dir));
    db.create_table("t").unwrap();
    let mut server = Server::start(db.clone(), ServerOptions::default()).expect("bind");
    let addr = server.local_addr();

    // 8 live connections hammer commits; a response written under group
    // commit means the WAL fsync covering that commit completed.
    let acked: Arc<parking_lot::Mutex<Vec<Vec<u8>>>> =
        Arc::new(parking_lot::Mutex::new(Vec::new()));
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut workers = Vec::new();
    for w in 0..8u32 {
        let acked = acked.clone();
        let stop = stop.clone();
        workers.push(std::thread::spawn(move || {
            let Ok(mut c) = Client::connect(addr) else {
                return;
            };
            for i in 0..u32::MAX {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let key = format!("w{w}-{i}").into_bytes();
                match c.put("t", &key, b"payload") {
                    // The ok response is the durability acknowledgement.
                    Ok(()) => acked.lock().push(key),
                    // Drain reached us: shed, revoked, or disconnected.
                    Err(_) => break,
                }
            }
        }));
    }

    // Let traffic build, then drain while all 8 are live.
    std::thread::sleep(Duration::from_millis(300));
    assert!(server.session_count() >= 1, "traffic never started");
    server.shutdown();
    stop.store(true, Ordering::Relaxed);
    for w in workers {
        w.join().unwrap();
    }

    // No leaked session, and nothing server-side pins the GC horizon: a
    // fresh commit advances past everything the drain rolled back.
    assert_eq!(server.session_count(), 0);
    let horizon_after_drain = db.transaction_manager().gc_horizon();
    let mut probe = db.begin();
    probe.put(&db.table("t").unwrap(), b"probe", b"1").unwrap();
    probe.commit().unwrap();
    assert!(db.transaction_manager().gc_horizon() >= horizon_after_drain);

    // Reopen from disk: every acknowledged commit must have survived.
    let acked = acked.lock().clone();
    assert!(
        !acked.is_empty(),
        "drain test never acknowledged a commit; not exercising the contract"
    );
    drop(server);
    db.close();
    drop(db);
    let reopened =
        Database::open(Options::default().with_durability(Durability::GroupCommit, &dir));
    let table = reopened.table("t").unwrap();
    let mut txn = reopened.begin_read_only();
    for key in &acked {
        assert!(
            txn.get(&table, key).unwrap().is_some(),
            "acknowledged commit {} lost across drain + reopen",
            String::from_utf8_lossy(key)
        );
    }
    drop(txn);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn draining_server_refuses_new_connections_and_new_begins() {
    let server = start(Database::open_default());
    let addr = server.local_addr();
    let mut held = connect(&server);
    held.ping().unwrap();
    let mut server = server;
    server.shutdown();

    // Fresh connections are refused (error frame or reset — never a hang).
    if let Ok(mut c) = Client::connect(addr) {
        assert!(c.ping().is_err(), "drained server accepted new work");
    }
    // The held connection is gone too.
    assert!(held.ping().is_err());
}

#[test]
fn connection_cap_refuses_excess_clients_with_busy() {
    let db = Database::open_default();
    let server = Server::start(
        db,
        ServerOptions {
            max_connections: 2,
            ..ServerOptions::default()
        },
    )
    .expect("bind");
    let mut a = connect(&server);
    let mut b = connect(&server);
    a.ping().unwrap();
    b.ping().unwrap();
    // The third connection is refused with one busy error frame; read it
    // off the raw stream (the server sends it unprompted, then closes).
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = std::io::BufReader::new(stream);
    let payload = ssi_server::proto::read_frame(&mut reader, 1 << 20)
        .unwrap()
        .expect("refusal frame");
    match Response::decode(&payload).unwrap() {
        Response::Err(ErrorCode::Busy, _) => {}
        other => panic!("expected busy refusal, got {other:?}"),
    }
    assert!(server.metrics().connections_rejected >= 1);
}
