//! Records the durability-cost comparison in `BENCH_wal.json`.
//!
//! Runs the same 8-writer-thread commit workload against four durability
//! configurations of the same engine:
//!
//! * **off** — `Durability::Off`, the pure in-memory engine (the baseline
//!   every earlier bench measured; the durable code path is entirely
//!   absent, so this records the "no regression" number);
//! * **buffered** — `Durability::Buffered`: commits append to the redo log
//!   but never wait for the device;
//! * **group_commit** — `Durability::GroupCommit`: committers share
//!   flushes, so concurrent commits amortize the device wait — but the
//!   batch is bounded by natural committer pile-up (whoever finds no flush
//!   running syncs immediately);
//! * **background_flusher** — `GroupCommit` plus the dedicated flusher
//!   thread (`Options::with_background_flusher`): committers enqueue and
//!   park, the flusher fsyncs when the batch ages out (`flush_max_delay`)
//!   or fills up, so the batch size is set by the knob, not by pile-up.
//!
//! The headline numbers are the **amortization factors**: commit records
//! per fsync at 8 threads (a naive durable commit, one fsync each, would be
//! exactly 1.0) — once for committer-elected group commit, once for the
//! background flusher. The per-commit-fsync case itself is recorded in
//! `BENCH_wal.json` and in git history.
//!
//! ```text
//! cargo run --release -p ssi-bench --bin wal_bench [--smoke] [output.json]
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use ssi_core::{Database, Durability, MetricsSnapshot, Options};

struct Case {
    name: &'static str,
    mode: Option<Durability>,
    /// Dedicated flusher with this `flush_max_delay` (None: committer-elected).
    flush_max_delay: Option<Duration>,
}

#[derive(Debug)]
struct CaseResult {
    name: &'static str,
    threads: usize,
    elapsed_secs: f64,
    /// Unified engine snapshot taken before the database is dropped — the
    /// WAL counters reported below come from it, so the bench artifact can
    /// never disagree with `Database::metrics()`. On the clean-disk path
    /// `wal.io_failures` and `wal.fsync_retries` must both be zero:
    /// nonzero means the robustness machinery (fault classification,
    /// retry-with-backoff) intruded on a healthy run.
    metrics: MetricsSnapshot,
}

impl CaseResult {
    fn committed_per_sec(&self) -> f64 {
        self.metrics.txn.committed as f64 / self.elapsed_secs.max(1e-9)
    }

    fn records_per_fsync(&self) -> f64 {
        self.metrics.wal.records as f64 / self.metrics.wal.fsyncs.max(1) as f64
    }
}

fn bench_dir(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ssi-wal-bench-{}-{name}", std::process::id()))
}

fn run_case(case: &Case, threads: usize, txns_per_thread: u64) -> CaseResult {
    let dir = bench_dir(case.name);
    let _ = std::fs::remove_dir_all(&dir);
    let mut options = Options::default();
    if let Some(mode) = case.mode {
        options = options.with_durability(mode, &dir);
        if let Some(delay) = case.flush_max_delay {
            options = options.with_background_flusher(delay);
        }
    }
    let db = Database::open(options);
    let table = db.create_table("bench").unwrap();

    let start = Instant::now();
    std::thread::scope(|s| {
        for worker in 0..threads as u64 {
            let db = db.clone();
            let table = table.clone();
            s.spawn(move || {
                let payload = [0x5Au8; 100];
                for i in 0..txns_per_thread {
                    // Two writes to disjoint per-worker keys: no aborts, so
                    // every case commits exactly threads * txns_per_thread.
                    let mut txn = db.begin();
                    txn.put(&table, &(worker << 32 | i).to_be_bytes(), &payload)
                        .unwrap();
                    txn.put(
                        &table,
                        &(worker << 32 | i | 1 << 24).to_be_bytes(),
                        &payload,
                    )
                    .unwrap();
                    txn.commit().unwrap();
                }
            });
        }
    });
    let elapsed_secs = start.elapsed().as_secs_f64();

    let metrics = db.metrics();
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    CaseResult {
        name: case.name,
        threads,
        elapsed_secs,
        metrics,
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_wal.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => out_path = other.to_string(),
        }
    }
    let threads = 8;
    let txns_per_thread: u64 = if smoke { 40 } else { 400 };

    let cases = [
        Case {
            name: "off",
            mode: None,
            flush_max_delay: None,
        },
        Case {
            name: "buffered",
            mode: Some(Durability::Buffered),
            flush_max_delay: None,
        },
        Case {
            name: "group_commit",
            mode: Some(Durability::GroupCommit),
            flush_max_delay: None,
        },
        Case {
            name: "background_flusher",
            mode: Some(Durability::GroupCommit),
            flush_max_delay: Some(Duration::from_millis(2)),
        },
    ];

    println!(
        "{:<18} {:>3} {:>12} {:>9} {:>8} {:>12}",
        "case", "thr", "commits/s", "records", "fsyncs", "rec/fsync"
    );
    let mut results = Vec::new();
    for case in &cases {
        let result = run_case(case, threads, txns_per_thread);
        println!(
            "{:<18} {:>3} {:>12.0} {:>9} {:>8} {:>12.1}",
            result.name,
            result.threads,
            result.committed_per_sec(),
            result.metrics.wal.records,
            result.metrics.wal.fsyncs,
            result.records_per_fsync(),
        );
        results.push(result);
    }

    let find = |name: &str| results.iter().find(|r| r.name == name).unwrap();
    let group = find("group_commit");
    let background = find("background_flusher");
    // Amortization: records per fsync, against 1.0 for one fsync per commit.
    let amortization = group.records_per_fsync();
    let bg_amortization = background.records_per_fsync();
    let bg_vs_group = bg_amortization / amortization.max(1.0);
    println!(
        "\ngroup commit amortizes fsyncs {amortization:.1}x over per-commit fsync \
         at {threads} threads"
    );
    println!(
        "background flusher amortizes fsyncs {bg_amortization:.1}x over per-commit fsync \
         ({bg_vs_group:.2}x the committer-elected batch size) at {threads} threads"
    );

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"wal_durability\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    json.push_str(
        "  \"comment\": \"8 writer threads, disjoint-key 2-write transactions, 100-byte \
         values. 'off' is the unchanged in-memory engine (durability code entirely off \
         the path: parity with the pre-durability numbers). 'group_commit' lets concurrent committers share flushes via \
         the deposit-drain-ordered log (batch bounded by committer pile-up); \
         'background_flusher' adds the dedicated flusher thread with flush_max_delay=2ms \
         (batch bounded by the knob). records_per_fsync is the amortization factor.\",\n",
    );
    json.push_str("  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"threads\": {}, \
             \"committed_per_sec\": {:.0}, \"records_per_fsync\": {:.2}, \
             \"metrics\": {}}}{}",
            r.name,
            r.threads,
            r.committed_per_sec(),
            r.records_per_fsync(),
            r.metrics.to_json(),
            if i + 1 == results.len() { "\n" } else { ",\n" },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"group_commit_fsync_amortization\": {amortization:.2},\n  \
         \"background_flusher_fsync_amortization\": {bg_amortization:.2},\n  \
         \"background_flusher_batch_vs_group_commit\": {bg_vs_group:.3}\n}}"
    );

    std::fs::write(&out_path, &json).expect("write bench output");
    println!("wrote {out_path}");
}
