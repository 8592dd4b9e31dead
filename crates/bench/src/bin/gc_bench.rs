//! Records the version-GC cost/benefit comparison in `BENCH_gc.json`.
//!
//! Hot-key churn workload: writer threads continuously overwrite a small
//! key set (so version chains grow without GC) while reader threads hammer
//! point reads of the same keys. Two configurations of the same engine:
//!
//! * **no_purge** — no purge pass ever runs: the only reclamation is the
//!   pruning a writer does when it finds a long chain (always on), so this
//!   case shows what writers alone keep the hot chains at;
//! * **auto_purge** — `Options::purge_every_commits` keeps GC running on
//!   the commit cadence at the pinned safe horizon — inline, on whichever
//!   committer trips the threshold, a quarter of the storage shards per
//!   trip.
//!
//! The headline numbers: reader throughput and the final version count —
//! the memory-growth proxy — in the two configurations. Since writers
//! prune the chains they lengthen and a read stops at the first version its
//! snapshot sees, neither depends on a pass any more on this workload: what
//! is left to compare is the cost of running passes on committers.
//!
//! ```text
//! cargo run --release -p ssi-bench --bin gc_bench [--smoke] [output.json]
//! ```

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ssi_core::{AbortReason, Database, IsolationLevel, MetricsSnapshot, Options};

const HOT_KEYS: u64 = 16;
const WRITER_THREADS: u64 = 2;
const READER_THREADS: u64 = 4;

struct Case {
    name: &'static str,
    purge_every: Option<u64>,
}

#[derive(Debug)]
struct CaseResult {
    name: &'static str,
    reads: u64,
    elapsed_secs: f64,
    final_versions: u64,
    /// Unified engine snapshot taken at the end of the run — the counters
    /// below and the embedded JSON come from the same source, so the bench
    /// artifact can never disagree with `Database::metrics()`.
    metrics: MetricsSnapshot,
}

impl CaseResult {
    fn reads_per_sec(&self) -> f64 {
        self.reads as f64 / self.elapsed_secs.max(1e-9)
    }
}

fn run_case(case: &Case, duration: Duration) -> CaseResult {
    // Plain SI: reads take no locks, so the versions newer than a reader's
    // snapshot are all a read pays for on a hot chain. Writers overwrite
    // disjoint per-thread key slices, so no genuine write-write conflict
    // exists and the configurations perform identical logical work.
    let mut options = Options::default().with_isolation(IsolationLevel::SnapshotIsolation);
    if let Some(every) = case.purge_every {
        options = options.with_auto_purge(every);
    }
    let db = Database::open(options);
    let table = db.create_table("hot").unwrap();
    let mut setup = db.begin();
    for k in 0..HOT_KEYS {
        setup.put(&table, &k.to_be_bytes(), &[0u8; 64]).unwrap();
    }
    setup.commit().unwrap();

    let stop = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    let start = Instant::now();
    let elapsed = std::thread::scope(|s| {
        for w in 0..WRITER_THREADS {
            let db = db.clone();
            let table = table.clone();
            let stop = &stop;
            s.spawn(move || {
                let payload = [0x5Au8; 64];
                let mut n = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    // Each writer owns the keys congruent to it mod
                    // WRITER_THREADS: hot-key churn with zero aborts.
                    let key =
                        (w + WRITER_THREADS * (n % (HOT_KEYS / WRITER_THREADS))).to_be_bytes();
                    let mut txn = db.begin();
                    match txn.put(&table, &key, &payload).and_then(|_| txn.commit()) {
                        Ok(()) => n += 1,
                        // Keys are disjoint per writer, so the only
                        // possible abort is the benign deferred-snapshot /
                        // commit-publication race tripping
                        // first-committer-wins (same false positive the
                        // sibench suite documents); retry the overwrite.
                        Err(e) => assert_eq!(
                            e.abort_reason(),
                            Some(AbortReason::WriteConflict),
                            "unexpected abort in disjoint-key writer: {e}"
                        ),
                    }
                }
            });
        }
        for r in 0..READER_THREADS {
            let db = db.clone();
            let table = table.clone();
            let (stop, reads) = (&stop, &reads);
            s.spawn(move || {
                let mut n = r; // desync the threads' key sequences
                let mut local = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = (n % HOT_KEYS).to_be_bytes();
                    let mut txn = db.begin_read_only();
                    let v = txn.get(&table, &key).unwrap();
                    assert!(v.is_some(), "hot key vanished under purge");
                    txn.commit().unwrap();
                    local += 1;
                    n += 1;
                }
                reads.fetch_add(local, Ordering::Relaxed);
            });
        }
        std::thread::sleep(duration);
        let elapsed = start.elapsed();
        stop.store(true, Ordering::Relaxed);
        elapsed
    });

    let metrics = db.metrics();
    let final_versions = metrics
        .tables
        .iter()
        .find(|t| t.name == "hot")
        .map_or(0, |t| t.versions);
    CaseResult {
        name: case.name,
        reads: reads.load(Ordering::Relaxed),
        elapsed_secs: elapsed.as_secs_f64(),
        final_versions,
        metrics,
    }
}

fn main() {
    let mut smoke = false;
    let mut out_path = "BENCH_gc.json".to_string();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => out_path = other.to_string(),
        }
    }
    let duration = if smoke {
        Duration::from_millis(400)
    } else {
        Duration::from_millis(2500)
    };

    let cases = [
        Case {
            name: "no_purge",
            purge_every: None,
        },
        Case {
            name: "auto_purge",
            purge_every: Some(64),
        },
    ];

    println!(
        "{:<12} {:>12} {:>10} {:>14} {:>10} {:>12}",
        "case", "reads/s", "writes", "final_versions", "purges", "reclaimed"
    );
    let mut results = Vec::new();
    for case in &cases {
        let result = run_case(case, duration);
        println!(
            "{:<12} {:>12.0} {:>10} {:>14} {:>10} {:>12}",
            result.name,
            result.reads_per_sec(),
            result.metrics.txn.committed,
            result.final_versions,
            result.metrics.gc.purge_runs,
            result.metrics.gc.purged_versions,
        );
        results.push(result);
    }

    let baseline = results.iter().find(|r| r.name == "no_purge").unwrap();
    let purged = results.iter().find(|r| r.name == "auto_purge").unwrap();
    let read_ratio = purged.reads_per_sec() / baseline.reads_per_sec().max(1.0);
    println!(
        "\ninline purge: {read_ratio:.2}x reader throughput vs no-purge baseline; \
         final versions {} vs {} (live-key floor {HOT_KEYS})",
        purged.final_versions, baseline.final_versions
    );

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"gc_reclamation\",\n");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if smoke { "smoke" } else { "full" }
    );
    json.push_str(
        "  \"comment\": \"Hot-key churn: 2 writer threads overwrite 16 keys (disjoint \
         slices, no aborts) while 4 reader threads point-read them at SI. 'no_purge' \
         runs no purge pass: writers alone prune the chains they find long (always \
         on, in every case); 'auto_purge' adds a pass every 64 \
         write commits at the pinned safe horizon, inline on the tripping committer, \
         over a quarter of the storage shards per trip. final_versions is the \
         memory-growth proxy: what the oldest snapshot open when the run stopped still \
         held back, over the 16-key live floor. read_throughput_ratio is \
         auto_purge/no_purge reads per second.\",\n",
    );
    json.push_str("  \"cases\": [\n");
    for (i, r) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"reader_threads\": {READER_THREADS}, \
             \"writer_threads\": {WRITER_THREADS}, \"hot_keys\": {HOT_KEYS}, \
             \"reads\": {}, \"reads_per_sec\": {:.0}, \"final_versions\": {}, \
             \"metrics\": {}}}{}",
            r.name,
            r.reads,
            r.reads_per_sec(),
            r.final_versions,
            r.metrics.to_json(),
            if i + 1 == results.len() { "\n" } else { ",\n" },
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"read_throughput_ratio\": {read_ratio:.3},\n  \
         \"final_versions_no_purge\": {},\n  \"final_versions_auto_purge\": {}\n}}",
        baseline.final_versions, purged.final_versions
    );

    std::fs::write(&out_path, &json).expect("write bench output");
    println!("wrote {out_path}");
}
