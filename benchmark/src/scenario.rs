//! The six workloads, how each is set up, and how its outputs are checked.
//!
//! Each workload differs from one other in exactly one layer, because every
//! anomaly ROADMAP lists is a two-configuration delta. The names are final;
//! later issues cite them.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serializable_si::{
    Client, Database, Durability, IsolationLevel, Options, Server, ServerOptions, TableRef,
};

use crate::backend::{Embedded, Wire};
use crate::programs::Program;

/// Closed-loop clients: one thread (and, on the wire, one connection) each.
/// Fixed rather than read from the machine so runs on different machines
/// generate the same load; 2 is the sandbox's core count.
pub const CLIENTS: usize = 2;

const CUSTOMERS: u64 = 100_000;
/// Rows per load transaction.
const LOAD_BATCH: usize = 3000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scenario {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload exists.
    pub why: &'static str,
    pub program: Program,
    pub isolation: IsolationLevel,
    /// `Durability::GroupCommit` with default options: committer-elected
    /// group commit, one real `fsync` per batch. The flush policy is the same
    /// on every commit and is printed with the results.
    pub durable: bool,
    /// Through `Client` over loopback TCP instead of the embedded handle.
    pub wire: bool,
}

const SMALLBANK: Program = Program::SmallBank {
    customers: CUSTOMERS,
    hot: 1000,
};
const SSI: IsolationLevel = IsolationLevel::SerializableSnapshotIsolation;

pub const WORKLOADS: [Scenario; 6] = [
    Scenario {
        name: "smallbank_si_mem",
        why: "Embedded SmallBank at plain SI, no log: bypasses SIREAD locks and conflict marking, so storage and the commit pipeline dominate.",
        program: SMALLBANK,
        isolation: IsolationLevel::SnapshotIsolation,
        durable: false,
        wire: false,
    },
    Scenario {
        name: "smallbank_ssi_mem",
        why: "Same at Serializable SI, the paper's headline configuration: the delta to smallbank_si_mem is the cost of serializability.",
        program: SMALLBANK,
        isolation: SSI,
        durable: false,
        wire: false,
    },
    Scenario {
        name: "smallbank_ssi_wal",
        why: "Same with group-commit durability and real fsync: the WAL and the fsync wait dominate; every acknowledged commit is checked after reopen.",
        program: SMALLBANK,
        isolation: SSI,
        durable: true,
        wire: false,
    },
    Scenario {
        name: "smallbank_ssi_tcp",
        why: "Same mix through the TCP client, one round trip per begin/op/commit on 2 connections: frame codec, session and thread hand-off dominate.",
        program: SMALLBANK,
        isolation: SSI,
        durable: false,
        wire: true,
    },
    Scenario {
        name: "sibench_ssi_mem",
        why: "500 items, full-table min scan or one-row increment 60/40: ordered index, chain visits and gap SIREAD locks instead of point operations.",
        program: Program::SiBench { items: 500 },
        isolation: SSI,
        durable: false,
        wire: false,
    },
    Scenario {
        name: "smallbank_ssi_hot",
        why: "smallbank_ssi_mem with a 16-customer hot set: lock waits, first-committer-wins, unsafe aborts and retries do most of the work.",
        program: Program::SmallBank {
            customers: CUSTOMERS,
            hot: 16,
        },
        isolation: SSI,
        durable: false,
        wire: false,
    },
];

impl Scenario {
    pub fn named(name: &str) -> Option<Scenario> {
        WORKLOADS.into_iter().find(|s| s.name == name)
    }

    /// The scenario one layer below this one, and the per-layer metric that
    /// reports `1 − txn_per_s(self) / txn_per_s(reference)`: the wire
    /// workload without the wire, the durable one without the log, an SSI one
    /// at SI. A traced run measures both in one process.
    pub fn reference(self) -> Option<(&'static str, Scenario)> {
        if self.wire {
            Some((
                "server.wire_tax",
                Scenario {
                    wire: false,
                    ..self
                },
            ))
        } else if self.durable {
            Some((
                "wal.tax",
                Scenario {
                    durable: false,
                    ..self
                },
            ))
        } else if self.isolation == SSI {
            Some((
                "core.ssi_tax",
                Scenario {
                    isolation: IsolationLevel::SnapshotIsolation,
                    ..self
                },
            ))
        } else {
            None
        }
    }

    pub fn flush_policy(self) -> &'static str {
        if self.durable {
            "group commit, committer-elected, fsync before every acknowledgement"
        } else {
            "no log"
        }
    }

    fn options(self, wal_dir: &Path) -> Options {
        let options = Options::innodb_like().with_isolation(self.isolation);
        if self.durable {
            options.with_durability(Durability::GroupCommit, wal_dir)
        } else {
            options
        }
    }
}

/// The clients of a set-up system, one per thread.
pub enum Clients {
    Embedded(Vec<Embedded>),
    Wire(Vec<Wire>),
}

/// A loaded system ready to take load.
pub struct Env {
    pub scenario: Scenario,
    pub db: Database,
    tables: Vec<TableRef>,
    server: Option<Server>,
    wal_dir: PathBuf,
    /// Requests the server had counted when the clients were handed out.
    requests_at_start: u64,
}

fn io_err(what: &str, e: impl std::fmt::Display) -> String {
    format!("{what}: {e}")
}

/// Opens the database, loads the program's rows, and — for the wire workload
/// — starts the server and connects the clients. `scratch` is a directory
/// inside the checkout; the log lives in a fresh sub-directory of it.
pub fn set_up(scenario: Scenario, scratch: &Path) -> Result<(Env, Clients), String> {
    static NEXT_DIR: std::sync::atomic::AtomicU32 = std::sync::atomic::AtomicU32::new(0);
    let wal_dir = scratch.join(format!(
        "wal-{}-{}",
        std::process::id(),
        NEXT_DIR.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let db = Database::try_open(scenario.options(&wal_dir)).map_err(|e| io_err("open", e))?;
    let tables = scenario
        .program
        .tables()
        .iter()
        .map(|name| db.create_table(name))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| io_err("create_table", e))?;

    let mut rows = scenario.program.initial_rows().peekable();
    while rows.peek().is_some() {
        let mut txn = db.begin_with(scenario.isolation);
        for (table, key, value) in rows.by_ref().take(LOAD_BATCH) {
            txn.put(&tables[table], &key, &value.to_be_bytes())
                .map_err(|e| io_err("load put", e))?;
        }
        txn.commit().map_err(|e| io_err("load commit", e))?;
    }

    let mut env = Env {
        scenario,
        db: db.clone(),
        tables: tables.clone(),
        server: None,
        wal_dir,
        requests_at_start: 0,
    };
    let clients = if scenario.wire {
        let server =
            Server::start(db, ServerOptions::default()).map_err(|e| io_err("server start", e))?;
        let clients = (0..CLIENTS)
            .map(|_| {
                Client::connect(server.local_addr()).map(|client| Wire {
                    client,
                    tables: scenario.program.tables(),
                    isolation: scenario.isolation,
                    round_trips: 0,
                })
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| io_err("connect", e))?;
        env.requests_at_start = server.metrics().requests;
        env.server = Some(server);
        Clients::Wire(clients)
    } else {
        Clients::Embedded(
            (0..CLIENTS)
                .map(|_| Embedded {
                    db: db.clone(),
                    tables: tables.clone(),
                    isolation: scenario.isolation,
                })
                .collect(),
        )
    };
    Ok((env, clients))
}

/// What the checks learned beyond pass/fail.
#[derive(Default, Debug)]
pub struct Verified {
    /// Seconds to reopen and recover the log (0 without one).
    pub recovery_s: f64,
    pub server_busy_rejections: u64,
    pub server_malformed_frames: u64,
}

fn summed(db: &Database, tables: &[TableRef], scenario: Scenario) -> Result<i64, String> {
    let mut txn = db.begin_with(IsolationLevel::SnapshotIsolation);
    let mut total = 0i64;
    for &ix in scenario.program.summed_tables() {
        let rows = txn
            .scan(
                &tables[ix],
                std::ops::Bound::Unbounded,
                std::ops::Bound::Unbounded,
            )
            .map_err(|e| io_err("check scan", e))?;
        for (_, value) in rows {
            let value: [u8; 8] = value[..]
                .try_into()
                .map_err(|_| "check: value is not 8 bytes".to_string())?;
            total += i64::from_be_bytes(value);
        }
    }
    txn.commit().map_err(|e| io_err("check commit", e))?;
    Ok(total)
}

impl Env {
    /// Checks the program's outputs and tears the system down. `ledger` is
    /// the sum of the deltas of every transaction a client saw committed;
    /// `round_trips` the request frames the wire clients sent (they must
    /// already be dropped, so their connections are closed).
    ///
    /// - conservation: the summed tables hold `initial + ledger` (SmallBank
    ///   money at SI and SSI alike; sibench values == committed increments);
    /// - durable: the same after dropping every handle and recovering from
    ///   the log directory — every acknowledged commit is present;
    /// - wire: the server counted exactly the requests sent, shed and
    ///   rejected none, and shutdown leaves no session.
    pub fn verify_and_tear_down(self, ledger: i64, round_trips: u64) -> Result<Verified, String> {
        let Env {
            scenario,
            db,
            tables,
            server,
            wal_dir,
            requests_at_start,
        } = self;
        let mut verified = Verified::default();
        let expected = scenario.program.initial_total() + ledger;

        if let Some(mut server) = server {
            let before = server.metrics();
            server.shutdown();
            let sessions = server.session_count();
            let after = server.metrics();
            verified.server_busy_rejections = after.busy_rejections;
            verified.server_malformed_frames = after.malformed_frames;
            let served = before.requests - requests_at_start;
            if served != round_trips {
                return Err(format!(
                    "server counted {served} requests, clients sent {round_trips}"
                ));
            }
            if after.busy_rejections != 0 || after.malformed_frames != 0 {
                return Err(format!(
                    "server shed {} and rejected {} frames",
                    after.busy_rejections, after.malformed_frames
                ));
            }
            if sessions != 0 {
                return Err(format!("{sessions} sessions survive shutdown"));
            }
        }

        let live = summed(&db, &tables, scenario)?;
        if live != expected {
            return Err(format!(
                "conservation: tables sum to {live}, ledger says {expected}"
            ));
        }

        if scenario.durable {
            drop(tables);
            drop(db);
            let reopen = Instant::now();
            let db =
                Database::try_open(scenario.options(&wal_dir)).map_err(|e| io_err("reopen", e))?;
            verified.recovery_s = reopen.elapsed().as_secs_f64();
            let tables = scenario
                .program
                .tables()
                .iter()
                .map(|name| db.table(name))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| io_err("recovered table", e))?;
            let recovered = summed(&db, &tables, scenario)?;
            drop(tables);
            drop(db);
            std::fs::remove_dir_all(&wal_dir).map_err(|e| io_err("remove log dir", e))?;
            if recovered != expected {
                return Err(format!(
                    "durability: recovered tables sum to {recovered}, ledger says {expected}"
                ));
            }
        }
        Ok(verified)
    }

    /// Tears down without checking (the extra set-ups timed for `setup_s`).
    pub fn discard(self) -> Result<(), String> {
        let Env {
            scenario,
            db,
            tables,
            server,
            wal_dir,
            ..
        } = self;
        drop(server);
        drop(tables);
        drop(db);
        if scenario.durable {
            std::fs::remove_dir_all(&wal_dir).map_err(|e| io_err("remove log dir", e))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_references_differ_in_one_layer() {
        for (i, a) in WORKLOADS.iter().enumerate() {
            assert_eq!(Scenario::named(a.name), Some(*a));
            assert!(WORKLOADS[i + 1..].iter().all(|b| b.name != a.name));
            assert!(a.why.len() <= 200 && !a.why.contains('\n'), "{}", a.name);
        }
        let by = |n| Scenario::named(n).unwrap();
        let ssi_mem = by("smallbank_ssi_mem");
        assert_eq!(by("smallbank_si_mem").reference(), None);
        let same = |a: Scenario, b: Scenario| {
            Scenario {
                name: "",
                why: "",
                ..a
            } == Scenario {
                name: "",
                why: "",
                ..b
            }
        };
        let (metric, reference) = ssi_mem.reference().unwrap();
        assert_eq!(metric, "core.ssi_tax");
        assert!(same(reference, by("smallbank_si_mem")));
        let (metric, reference) = by("smallbank_ssi_wal").reference().unwrap();
        assert_eq!(metric, "wal.tax");
        assert!(same(reference, ssi_mem));
        let (metric, reference) = by("smallbank_ssi_tcp").reference().unwrap();
        assert_eq!(metric, "server.wire_tax");
        assert!(same(reference, ssi_mem));
        assert_eq!(by("sibench_ssi_mem").reference().unwrap().0, "core.ssi_tax");
        assert_eq!(
            by("smallbank_ssi_hot").reference().unwrap().0,
            "core.ssi_tax"
        );
    }
}
