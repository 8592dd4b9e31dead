//! Experiment harness reproducing the evaluation of Chapter 6 of the thesis.
//!
//! Every figure of the evaluation chapter is described by an
//! [`ExperimentDef`]: which workload, which engine configuration
//! (Berkeley-DB-like page locking vs InnoDB-like row locking, log flush at
//! commit or not), which parameters, and which MPL sweep. [`run_experiment`]
//! executes the definition for the three isolation levels the thesis
//! compares (SI, Serializable SI, S2PL) and returns one [`PointResult`] per
//! (level, MPL) pair — exactly the series the thesis plots: committed
//! transactions per second plus aborts per commit broken down into
//! deadlocks, first-committer-wins conflicts and unsafe aborts.
//!
//! The flush figures (6.2–6.5) run on the engine's real redo log in
//! group-commit mode, in a per-run temp directory ([`LogDir`]), on a device
//! whose every fsync is slowed to [`COMMIT_FLUSH_LATENCY`] by an
//! `ssi_wal::FaultVfs` delay rule.
//!
//! The `experiments` binary (in `src/bin`) prints these series as text
//! tables.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ssi_common::stats::RunStats;
use ssi_common::{AbortKind, IsolationLevel};
use ssi_core::{Database, Durability, FaultMode, FaultOp, FaultRule, FaultVfs, Options};
use ssi_workloads::driver::{run_workload, RunConfig, Workload};
use ssi_workloads::sibench::SiBench;
use ssi_workloads::smallbank::{SmallBank, SmallBankConfig};
use ssi_workloads::tpcc::{ScaleFactor, TpccConfig, TpccWorkload};

/// Which workload an experiment runs, with the parameters the corresponding
/// figure uses.
#[derive(Clone, Debug)]
pub enum WorkloadSpec {
    /// SmallBank on the Berkeley-DB-like engine configuration
    /// (page-granularity locks, basic conflict flags), Sec. 6.1.
    SmallBank {
        /// Number of customers.
        customers: u64,
        /// Number of pages the keys are spread over (controls contention,
        /// ~100 in the hot configuration).
        pages: u64,
        /// SmallBank operations per transaction (1 or 10).
        ops_per_txn: usize,
        /// Log flush at commit: group commit on the real log, every fsync
        /// taking this long (None = no log).
        flush: Option<Duration>,
    },
    /// sibench on the InnoDB-like engine configuration, Sec. 6.3.
    SiBench {
        /// Rows in the table.
        items: u64,
        /// Queries issued per update.
        queries_per_update: u32,
    },
    /// TPC-C++ on the InnoDB-like engine configuration, Sec. 6.4.
    Tpcc {
        /// Number of warehouses.
        warehouses: u32,
        /// Use the thesis' "tiny" row scaling instead of standard scaling.
        tiny: bool,
        /// Skip the warehouse/district year-to-date updates.
        skip_ytd: bool,
        /// Use the Stock Level mix (10 SLEV : 1 NEWO).
        stock_level_mix: bool,
    },
}

/// An experiment: one figure of the thesis.
#[derive(Clone, Debug)]
pub struct ExperimentDef {
    /// Identifier used on the command line (e.g. `fig6_7`).
    pub id: &'static str,
    /// The thesis figure it reproduces (e.g. "Figure 6.7").
    pub figure: &'static str,
    /// Human-readable description.
    pub title: &'static str,
    /// Workload and engine configuration.
    pub spec: WorkloadSpec,
    /// Multiprogramming levels to sweep.
    pub mpls: &'static [usize],
}

/// One measured point of an experiment.
#[derive(Clone, Debug)]
pub struct PointResult {
    /// Isolation level of this series.
    pub isolation: IsolationLevel,
    /// Multiprogramming level (worker threads).
    pub mpl: usize,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Deadlock aborts per commit.
    pub deadlocks_per_commit: f64,
    /// First-committer-wins aborts per commit.
    pub conflicts_per_commit: f64,
    /// SSI unsafe aborts per commit.
    pub unsafe_per_commit: f64,
    /// Mean latency of committed transactions.
    pub mean_latency: Duration,
    /// Fsyncs of the redo log during the point (0 without a log).
    pub fsyncs: u64,
    /// Commit records per fsync during the point: the group-commit
    /// amortization (0 without a log).
    pub records_per_fsync: f64,
    /// Raw statistics for further processing.
    pub stats: RunStats,
}

/// Execution settings of the harness (not part of an experiment's identity).
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Measured duration per (level, MPL) point.
    pub duration: Duration,
    /// Warm-up before each measurement.
    pub warmup: Duration,
    /// Use the full data scale from the thesis instead of the reduced
    /// "quick" scale (TPC-C standard row counts; longer MPL sweep).
    pub full: bool,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            duration: Duration::from_millis(800),
            warmup: Duration::from_millis(150),
            full: false,
            seed: 2008,
        }
    }
}

const QUICK_MPLS: &[usize] = &[1, 2, 5, 10, 20];
const FULL_MPLS: &[usize] = &[1, 2, 3, 5, 10, 20, 30, 50];

/// MPL sweep appropriate for the harness configuration.
pub fn mpl_sweep(def: &ExperimentDef, config: &HarnessConfig) -> Vec<usize> {
    if config.full {
        FULL_MPLS.to_vec()
    } else {
        def.mpls.to_vec()
    }
}

/// The fsync latency used for the "log flushed at commit" SmallBank
/// experiments. The thesis' 2008 disks took ~10 ms per flush; a smaller
/// value keeps the shape (I/O-bound commits, group-commit scaling) while
/// letting the quick harness finish in reasonable time.
pub const COMMIT_FLUSH_LATENCY: Duration = Duration::from_millis(2);

/// The log directory of one flush-at-commit run: a fresh temp directory,
/// removed with the log in it on drop. Declare it before the database that
/// logs into it, so the database closes first.
pub struct LogDir(PathBuf);

impl LogDir {
    /// A unique, not yet existing directory (the engine creates it).
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ssi-bench-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        LogDir(dir)
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for LogDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// All experiments of Chapter 6, in figure order.
pub fn all_experiments() -> Vec<ExperimentDef> {
    vec![
        ExperimentDef {
            id: "fig6_1",
            figure: "Figure 6.1",
            title: "Berkeley DB SmallBank, no log flush at commit (hot data)",
            spec: WorkloadSpec::SmallBank {
                customers: 1_000,
                pages: 100,
                ops_per_txn: 1,
                flush: None,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_2",
            figure: "Figure 6.2",
            title: "Berkeley DB SmallBank, log flushed at commit (group commit)",
            spec: WorkloadSpec::SmallBank {
                customers: 1_000,
                pages: 100,
                ops_per_txn: 1,
                flush: Some(COMMIT_FLUSH_LATENCY),
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_3",
            figure: "Figure 6.3",
            title: "Berkeley DB SmallBank, complex transactions (10 ops), log flush",
            spec: WorkloadSpec::SmallBank {
                customers: 1_000,
                pages: 100,
                ops_per_txn: 10,
                flush: Some(COMMIT_FLUSH_LATENCY),
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_4",
            figure: "Figure 6.4",
            title: "Berkeley DB SmallBank, 1/10th contention (10x data), log flush",
            spec: WorkloadSpec::SmallBank {
                customers: 10_000,
                pages: 1_000,
                ops_per_txn: 1,
                flush: Some(COMMIT_FLUSH_LATENCY),
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_5",
            figure: "Figure 6.5",
            title: "Berkeley DB SmallBank, complex transactions and low contention",
            spec: WorkloadSpec::SmallBank {
                customers: 10_000,
                pages: 1_000,
                ops_per_txn: 10,
                flush: Some(COMMIT_FLUSH_LATENCY),
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_6",
            figure: "Figure 6.6",
            title: "InnoDB sibench, 10 items, 1 query per update",
            spec: WorkloadSpec::SiBench {
                items: 10,
                queries_per_update: 1,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_7",
            figure: "Figure 6.7",
            title: "InnoDB sibench, 100 items, 1 query per update",
            spec: WorkloadSpec::SiBench {
                items: 100,
                queries_per_update: 1,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_8",
            figure: "Figure 6.8",
            title: "InnoDB sibench, 1000 items, 1 query per update",
            spec: WorkloadSpec::SiBench {
                items: 1_000,
                queries_per_update: 1,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_9",
            figure: "Figure 6.9",
            title: "InnoDB sibench, 10 items, 10 queries per update",
            spec: WorkloadSpec::SiBench {
                items: 10,
                queries_per_update: 10,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_10",
            figure: "Figure 6.10",
            title: "InnoDB sibench, 100 items, 10 queries per update",
            spec: WorkloadSpec::SiBench {
                items: 100,
                queries_per_update: 10,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_11",
            figure: "Figure 6.11",
            title: "InnoDB sibench, 1000 items, 10 queries per update",
            spec: WorkloadSpec::SiBench {
                items: 1_000,
                queries_per_update: 10,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_12",
            figure: "Figure 6.12",
            title: "TPC-C++, 1 warehouse, skipping year-to-date updates",
            spec: WorkloadSpec::Tpcc {
                warehouses: 1,
                tiny: false,
                skip_ytd: true,
                stock_level_mix: false,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_13",
            figure: "Figure 6.13",
            title: "TPC-C++, 10 warehouses, full mix",
            spec: WorkloadSpec::Tpcc {
                warehouses: 10,
                tiny: false,
                skip_ytd: false,
                stock_level_mix: false,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_14",
            figure: "Figure 6.14",
            title: "TPC-C++, 10 warehouses, skipping year-to-date updates",
            spec: WorkloadSpec::Tpcc {
                warehouses: 10,
                tiny: false,
                skip_ytd: true,
                stock_level_mix: false,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_15",
            figure: "Figure 6.15",
            title: "TPC-C++, 10 warehouses, tiny data scaling (high contention)",
            spec: WorkloadSpec::Tpcc {
                warehouses: 10,
                tiny: true,
                skip_ytd: false,
                stock_level_mix: false,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_16",
            figure: "Figure 6.16",
            title: "TPC-C++, tiny data scaling, skipping year-to-date updates",
            spec: WorkloadSpec::Tpcc {
                warehouses: 10,
                tiny: true,
                skip_ytd: true,
                stock_level_mix: false,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_17",
            figure: "Figure 6.17",
            title: "TPC-C++ Stock Level mix, 10 warehouses",
            spec: WorkloadSpec::Tpcc {
                warehouses: 10,
                tiny: false,
                skip_ytd: false,
                stock_level_mix: true,
            },
            mpls: QUICK_MPLS,
        },
        ExperimentDef {
            id: "fig6_18",
            figure: "Figure 6.18",
            title: "TPC-C++ Stock Level mix, tiny data scaling",
            spec: WorkloadSpec::Tpcc {
                warehouses: 10,
                tiny: true,
                skip_ytd: false,
                stock_level_mix: true,
            },
            mpls: QUICK_MPLS,
        },
    ]
}

/// Looks an experiment up by id.
pub fn find_experiment(id: &str) -> Option<ExperimentDef> {
    all_experiments().into_iter().find(|e| e.id == id)
}

/// Builds the engine options an experiment uses for a given isolation level;
/// a flush figure logs to `log_dir`.
fn options_for(spec: &WorkloadSpec, isolation: IsolationLevel, log_dir: &Path) -> Options {
    match spec {
        WorkloadSpec::SmallBank { pages, flush, .. } => {
            let options = Options::berkeley_like(*pages).with_isolation(isolation);
            match flush {
                Some(latency) => {
                    let slow_fsync = FaultRule::new(
                        FaultOp::Fsync,
                        FaultMode::Delay {
                            millis: latency.as_millis() as u64,
                        },
                        std::io::ErrorKind::Other,
                    );
                    options
                        .with_durability(Durability::GroupCommit, log_dir)
                        .with_vfs(FaultVfs::new(vec![slow_fsync]).handle())
                }
                None => options,
            }
        }
        WorkloadSpec::SiBench { .. } | WorkloadSpec::Tpcc { .. } => {
            Options::innodb_like().with_isolation(isolation)
        }
    }
}

/// Builds the workload an experiment uses (loading its data into `db`).
fn build_workload(
    spec: &WorkloadSpec,
    db: &Database,
    harness: &HarnessConfig,
) -> Box<dyn Workload> {
    match spec {
        WorkloadSpec::SmallBank {
            customers,
            ops_per_txn,
            ..
        } => Box::new(SmallBank::setup(
            db,
            SmallBankConfig {
                customers: *customers,
                ops_per_txn: *ops_per_txn,
                initial_balance: 10_000,
                mitigation: Default::default(),
            },
        )),
        WorkloadSpec::SiBench {
            items,
            queries_per_update,
        } => Box::new(SiBench::setup(db, *items, *queries_per_update)),
        WorkloadSpec::Tpcc {
            warehouses,
            tiny,
            skip_ytd,
            stock_level_mix,
        } => {
            // In quick mode the TPC-C experiments always use the thesis'
            // tiny row scaling so that loading stays fast; the warehouse
            // count (the contention knob) is preserved. Full mode uses the
            // exact scaling of the figure.
            let scale = if *tiny || !harness.full {
                ScaleFactor::tiny(*warehouses)
            } else {
                ScaleFactor::standard(*warehouses)
            };
            let mut config = TpccConfig::new(scale).with_skip_ytd(*skip_ytd);
            if *stock_level_mix {
                config = config.with_stock_level_mix();
            }
            Box::new(TpccWorkload::setup(db, config))
        }
    }
}

/// Runs one experiment, returning one point per (isolation level, MPL).
pub fn run_experiment(def: &ExperimentDef, harness: &HarnessConfig) -> Vec<PointResult> {
    let wal_counts = |db: &Database| {
        let wal = db.metrics().wal;
        (wal.records, wal.fsyncs)
    };
    let mut results = Vec::new();
    for isolation in IsolationLevel::evaluated() {
        let log_dir = LogDir::new(def.id);
        let db = Database::open(options_for(&def.spec, isolation, log_dir.path()));
        let workload = build_workload(&def.spec, &db, harness);
        for &mpl in &mpl_sweep(def, harness) {
            let (records_before, fsyncs_before) = wal_counts(&db);
            let stats = run_workload(
                &db,
                workload.as_ref(),
                &RunConfig {
                    mpl,
                    warmup: harness.warmup,
                    duration: harness.duration,
                    seed: harness.seed,
                },
            );
            let (records, fsyncs) = wal_counts(&db);
            let (records, fsyncs) = (records - records_before, fsyncs - fsyncs_before);
            results.push(PointResult {
                isolation,
                mpl,
                throughput: stats.throughput(),
                deadlocks_per_commit: stats.aborts_per_commit(AbortKind::Deadlock),
                conflicts_per_commit: stats.aborts_per_commit(AbortKind::UpdateConflict),
                unsafe_per_commit: stats.aborts_per_commit(AbortKind::Unsafe),
                mean_latency: stats.mean_latency,
                fsyncs,
                records_per_fsync: records as f64 / fsyncs.max(1) as f64,
                stats,
            });
        }
    }
    results
}

/// Formats a set of points as an aligned text table (one block per
/// isolation level), matching the series the thesis plots.
pub fn format_table(def: &ExperimentDef, points: &[PointResult]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {} ({}): {}\n", def.id, def.figure, def.title));
    out.push_str(&format!(
        "{:<6} {:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>10}\n",
        "level",
        "mpl",
        "commits/s",
        "deadlock/c",
        "conflict/c",
        "unsafe/c",
        "latency_us",
        "fsyncs",
        "rec/fsync"
    ));
    for point in points {
        out.push_str(&format!(
            "{:<6} {:>5} {:>12.1} {:>12.4} {:>12.4} {:>12.4} {:>12.1} {:>8} {:>10.2}\n",
            point.isolation.label(),
            point.mpl,
            point.throughput,
            point.deadlocks_per_commit,
            point.conflicts_per_commit,
            point.unsafe_per_commit,
            point.mean_latency.as_secs_f64() * 1e6,
            point.fsyncs,
            point.records_per_fsync,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_figures_are_defined_once() {
        let experiments = all_experiments();
        assert_eq!(experiments.len(), 18, "Figures 6.1 through 6.18");
        let mut ids: Vec<&str> = experiments.iter().map(|e| e.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 18, "experiment ids must be unique");
        for i in 1..=18 {
            assert!(
                find_experiment(&format!("fig6_{i}")).is_some(),
                "missing fig6_{i}"
            );
        }
        assert!(find_experiment("fig9_99").is_none());
    }

    #[test]
    fn options_match_the_prototype_for_each_workload() {
        let log_dir = LogDir::new("options-test");
        let sb = find_experiment("fig6_1").unwrap();
        let opts = options_for(
            &sb.spec,
            IsolationLevel::SerializableSnapshotIsolation,
            log_dir.path(),
        );
        assert!(
            opts.granularity.is_page(),
            "SmallBank runs on the BDB-like engine"
        );
        assert_eq!(opts.durability.mode, Durability::Off, "fig6_1 has no log");

        let sb2 = find_experiment("fig6_2").unwrap();
        let opts2 = options_for(&sb2.spec, IsolationLevel::SnapshotIsolation, log_dir.path());
        assert_eq!(opts2.durability.mode, Durability::GroupCommit);
        assert_eq!(opts2.durability.dir.as_deref(), Some(log_dir.path()));
        // The delay rule: a write commit waits out at least one slowed fsync.
        let db = Database::open(opts2);
        let t = db.create_table("t").unwrap();
        let mut txn = db.begin();
        txn.put(&t, b"k", b"v").unwrap();
        let start = std::time::Instant::now();
        txn.commit().unwrap();
        assert!(start.elapsed() >= COMMIT_FLUSH_LATENCY);
        assert!(db.metrics().wal.fsyncs >= 1);
        drop(db);
        let path = log_dir.path().to_path_buf();
        drop(log_dir);
        assert!(!path.exists(), "the log directory is removed on drop");

        let si = find_experiment("fig6_7").unwrap();
        let opts3 = options_for(
            &si.spec,
            IsolationLevel::StrictTwoPhaseLocking,
            Path::new("unused"),
        );
        assert!(
            !opts3.granularity.is_page(),
            "sibench runs on the InnoDB-like engine"
        );
    }

    #[test]
    fn smoke_run_of_a_small_experiment() {
        // A very short run of the smallest sibench figure: all three levels
        // must produce commits at every MPL.
        let def = find_experiment("fig6_6").unwrap();
        let harness = HarnessConfig {
            duration: Duration::from_millis(120),
            warmup: Duration::from_millis(30),
            full: false,
            seed: 1,
        };
        let points = run_experiment(&def, &harness);
        assert_eq!(points.len(), 3 * mpl_sweep(&def, &harness).len());
        assert!(points.iter().all(|p| p.throughput > 0.0));
        let table = format_table(&def, &points);
        assert!(table.contains("fig6_6"));
        assert!(table.contains("SSI"));
    }
}
