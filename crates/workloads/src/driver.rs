//! The benchmark driver: runs a workload at a fixed multiprogramming level
//! (MPL) for a fixed duration and aggregates throughput and abort statistics.
//!
//! This plays the role of `db_perf` in the Berkeley DB evaluation and of the
//! custom MySQL clients in the InnoDB evaluation (Sec. 6.1.1, 6.2): each of
//! the `mpl` worker threads executes transactions back-to-back with no think
//! time, counts commits per transaction type, and classifies every abort as a
//! deadlock, a first-committer-wins conflict, an SSI "unsafe" abort or an
//! application-requested rollback.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use ssi_common::rng::WorkloadRng;
use ssi_common::stats::{RunStats, WorkerStats};
use ssi_common::{AbortKind, Error};
use ssi_core::Database;

/// A benchmark workload that the driver can execute.
///
/// Implementations own their table handles and parameters; `execute_one`
/// picks a transaction type according to the workload's mix, runs it in a
/// fresh transaction and returns `(type index, outcome)`. On an `Err`
/// outcome the transaction has already been rolled back by the engine.
pub trait Workload: Sync {
    /// Human-readable workload name.
    fn name(&self) -> &str;

    /// Number of transaction types in the mix.
    fn transaction_types(&self) -> usize;

    /// Name of a transaction type (for reports).
    fn transaction_type_name(&self, ty: usize) -> &'static str;

    /// Executes one randomly chosen transaction.
    fn execute_one(&self, db: &Database, rng: &mut WorkloadRng) -> (usize, Result<(), Error>);

    /// Optional consistency check run after a measurement (e.g. SmallBank's
    /// non-negative-balance invariant). Returns a human-readable description
    /// of any violation found.
    fn check_consistency(&self, _db: &Database) -> Option<String> {
        None
    }
}

/// Driver configuration for one measured run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Number of worker threads issuing transactions back-to-back.
    pub mpl: usize,
    /// Warm-up period excluded from the measurement.
    pub warmup: Duration,
    /// Measured period.
    pub duration: Duration,
    /// Base RNG seed; worker `i` uses `seed + i`.
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            mpl: 1,
            warmup: Duration::from_millis(100),
            duration: Duration::from_secs(1),
            seed: 42,
        }
    }
}

impl RunConfig {
    /// Convenience constructor for a given MPL with default timings.
    pub fn with_mpl(mpl: usize) -> Self {
        RunConfig {
            mpl,
            ..RunConfig::default()
        }
    }
}

/// Runs `workload` against `db` with the given configuration and returns the
/// aggregated statistics of the measured period.
pub fn run_workload(db: &Database, workload: &dyn Workload, cfg: &RunConfig) -> RunStats {
    let measuring = AtomicBool::new(false);
    let stop = AtomicBool::new(false);
    let types = workload.transaction_types();

    let mut worker_stats: Vec<WorkerStats> = Vec::with_capacity(cfg.mpl);
    let measured_elapsed = std::sync::Mutex::new(Duration::ZERO);

    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(cfg.mpl);
        for worker in 0..cfg.mpl {
            let measuring = &measuring;
            let stop = &stop;
            let db = db.clone();
            let seed = cfg.seed + worker as u64;
            handles.push(scope.spawn(move || {
                let mut rng = WorkloadRng::new(seed);
                let mut stats = WorkerStats::with_types(types);
                while !stop.load(Ordering::Relaxed) {
                    let start = Instant::now();
                    let (ty, outcome) = workload.execute_one(&db, &mut rng);
                    if !measuring.load(Ordering::Relaxed) {
                        continue;
                    }
                    match outcome {
                        Ok(()) => stats.record_commit(ty, start.elapsed()),
                        Err(err) => {
                            let kind = err.abort_kind().unwrap_or(AbortKind::UserRequested);
                            stats.record_abort(kind);
                        }
                    }
                }
                stats
            }));
        }

        // Warm-up, then measure.
        std::thread::sleep(cfg.warmup);
        measuring.store(true, Ordering::Relaxed);
        let started = Instant::now();
        std::thread::sleep(cfg.duration);
        *measured_elapsed.lock().unwrap() = started.elapsed();
        stop.store(true, Ordering::Relaxed);

        for handle in handles {
            worker_stats.push(handle.join().expect("worker panicked"));
        }
    });

    let elapsed = *measured_elapsed.lock().unwrap();
    RunStats::aggregate(&worker_stats, elapsed, cfg.mpl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssi_core::Options;

    /// A trivial workload: increment one of `n` counters.
    struct Counters {
        table: ssi_core::TableRef,
        n: u64,
    }

    impl Counters {
        fn setup(db: &Database, n: u64) -> Self {
            let table = db.create_table("counters").unwrap();
            let mut txn = db.begin();
            for i in 0..n {
                txn.put(&table, &i.to_be_bytes(), &0u64.to_be_bytes())
                    .unwrap();
            }
            txn.commit().unwrap();
            Counters { table, n }
        }

        fn total(&self, db: &Database) -> u64 {
            let mut txn = db.begin();
            let rows = txn
                .scan(
                    &self.table,
                    std::ops::Bound::Unbounded,
                    std::ops::Bound::Unbounded,
                )
                .unwrap();
            let sum = rows
                .iter()
                .map(|(_, v)| u64::from_be_bytes(v[..].try_into().unwrap()))
                .sum();
            txn.commit().unwrap();
            sum
        }
    }

    impl Workload for Counters {
        fn name(&self) -> &str {
            "counters"
        }
        fn transaction_types(&self) -> usize {
            1
        }
        fn transaction_type_name(&self, _ty: usize) -> &'static str {
            "increment"
        }
        fn execute_one(&self, db: &Database, rng: &mut WorkloadRng) -> (usize, Result<(), Error>) {
            let key = rng.uniform(0, self.n - 1).to_be_bytes();
            let mut txn = db.begin();
            let result = (|| {
                let current = txn
                    .get_for_update(&self.table, &key)?
                    .map(|v| u64::from_be_bytes(v[..].try_into().unwrap()))
                    .unwrap_or(0);
                txn.put(&self.table, &key, &(current + 1).to_be_bytes())?;
                Ok(())
            })();
            match result {
                Ok(()) => (0, txn.commit()),
                Err(e) => (0, Err(e)),
            }
        }
    }

    #[test]
    fn driver_counts_commits_and_preserves_totals() {
        let db = Database::open(Options::default());
        let workload = Counters::setup(&db, 16);
        let cfg = RunConfig {
            mpl: 4,
            warmup: Duration::from_millis(20),
            duration: Duration::from_millis(200),
            seed: 7,
        };
        let stats = run_workload(&db, &workload, &cfg);
        assert!(stats.commits > 0, "should commit something");
        assert!(stats.throughput() > 0.0);
        assert_eq!(stats.mpl, 4);
        // The sum of all counters must equal the number of *successful*
        // increments — but the driver only counts commits inside the
        // measurement window, so the invariant we can check is weaker: the
        // total is at least the measured commits.
        assert!(workload.total(&db) >= stats.commits);
    }

    #[test]
    fn single_threaded_run_has_no_aborts() {
        let db = Database::open(Options::default());
        let workload = Counters::setup(&db, 4);
        let cfg = RunConfig {
            mpl: 1,
            warmup: Duration::from_millis(10),
            duration: Duration::from_millis(100),
            seed: 1,
        };
        let stats = run_workload(&db, &workload, &cfg);
        assert!(stats.commits > 0);
        assert_eq!(stats.cc_aborts(), 0);
    }
}
