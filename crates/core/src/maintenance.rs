//! Background maintenance: the supervised incremental GC thread, which
//! takes version reclamation off the commit path.
//!
//! The [`MaintenanceHub`] owns it when
//! [`crate::MaintenanceOptions::gc_interval`] is set: started by
//! `Database::try_open`, joined before the database releases its on-disk
//! WAL lock (see `DbInner::drop`). Every interval it purges the next
//! [`crate::MaintenanceOptions::gc_shards_per_pass`] storage shards of
//! every table ([`ssi_storage::Table::purge_shard`]) at the pinned safe
//! horizon, advancing a wrapping shard cursor — so reclamation is spread
//! into small slices, no lock is held for longer than one shard, and the
//! commit path does zero purge work (inline
//! [`crate::Options::purge_every_commits`] is skipped while the thread
//! runs). Passes are attributed to
//! [`crate::ManagerStats::background_purge_runs`].
//!
//! # Deterministic stepping
//!
//! The thread reports phase transitions through an injectable hook
//! ([`MaintenanceHook`], installed with `Database::set_maintenance_hook`) —
//! the same pattern as the transaction manager's sweep-pause hook. The
//! hook may block, so a test can hold the thread at a step point; combined
//! with `Database::step_gc` (which forces one pass regardless of the
//! timer) and an effectively-infinite interval, tests single-step it with
//! no wall-clock dependence.
//!
//! # Shutdown
//!
//! `shutdown_and_join` sets the stop flag, kicks the thread, and joins it:
//! it finishes at most one pass. Only after the join does `DbInner` drop
//! the durable state and with it the directory lock.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use ssi_common::DegradedReason;
use ssi_obs::{EngineMetrics, EventKind};
use ssi_storage::{Catalog, PurgeStats, SHARD_COUNT};

use crate::health::HealthCell;
use crate::manager::TransactionManager;
use crate::options::MaintenanceOptions;

/// Phase transitions of the GC thread, reported through the
/// [`MaintenanceHook`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MaintenanceEvent {
    /// A background GC pass is starting at this shard-cursor position.
    GcPassStart { first_shard: usize },
    /// A background GC pass finished, having reclaimed this much.
    GcPassEnd { versions: u64, chains: u64 },
}

/// Test instrumentation callback: invoked at every [`MaintenanceEvent`]
/// with no internal lock held, so it may block to single-step the thread.
pub type MaintenanceHook = Arc<dyn Fn(&MaintenanceEvent) + Send + Sync>;

/// State shared between the hub handle and its thread.
struct HubShared {
    shutdown: AtomicBool,
    /// GC wakeup (interval waits park here; `step_gc` and shutdown kick it).
    gc_mu: Mutex<()>,
    gc_cv: Condvar,
    gc_force: AtomicBool,
    /// Test-only step hook; `None` (one relaxed load) in normal operation.
    hook: Mutex<Option<MaintenanceHook>>,
    hook_set: AtomicBool,
}

impl HubShared {
    fn observe(&self, event: MaintenanceEvent) {
        if self.hook_set.load(Ordering::Relaxed) {
            let hook = self.hook.lock().clone();
            if let Some(hook) = hook {
                hook(&event);
            }
        }
    }
}

/// Owner of the background GC thread (module docs above).
pub(crate) struct MaintenanceHub {
    shared: Arc<HubShared>,
    gc: Option<JoinHandle<()>>,
}

impl MaintenanceHub {
    /// Starts the GC thread; `None` when the options ask for none.
    pub(crate) fn start(
        options: &MaintenanceOptions,
        catalog: Arc<Catalog>,
        txns: Arc<TransactionManager>,
        health: Arc<HealthCell>,
        metrics: Arc<EngineMetrics>,
    ) -> Option<MaintenanceHub> {
        let interval = options.gc_interval?;
        let shared = Arc::new(HubShared {
            shutdown: AtomicBool::new(false),
            gc_mu: Mutex::new(()),
            gc_cv: Condvar::new(),
            gc_force: AtomicBool::new(false),
            hook: Mutex::new(None),
            hook_set: AtomicBool::new(false),
        });
        let thread_shared = shared.clone();
        let shards_per_pass = options.gc_shards_per_pass.max(1);
        let gc = std::thread::Builder::new()
            .name("ssi-gc".into())
            .spawn(move || {
                let run = catch_unwind(AssertUnwindSafe(|| {
                    gc_loop(
                        &thread_shared,
                        &catalog,
                        &txns,
                        &metrics,
                        interval,
                        shards_per_pass,
                    )
                }));
                if run.is_err() {
                    // A dead GC thread stops reclamation but not
                    // correctness: degrade (surfacing it through the
                    // health API) without blocking writes.
                    if health.degrade(DegradedReason::GcThreadPanic) {
                        txns.stats()
                            .degraded_transitions
                            .fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
            .expect("spawn gc thread");
        Some(MaintenanceHub {
            shared,
            gc: Some(gc),
        })
    }

    /// Installs (or clears) the step hook.
    pub(crate) fn set_hook(&self, hook: Option<MaintenanceHook>) {
        self.shared
            .hook_set
            .store(hook.is_some(), Ordering::Relaxed);
        *self.shared.hook.lock() = hook;
    }

    /// Forces one background GC pass now, regardless of the interval.
    /// Asynchronous: returns before the pass runs (observe it through the
    /// hook, or poll `ManagerStats::background_purge_runs`).
    pub(crate) fn step_gc(&self) {
        self.shared.gc_force.store(true, Ordering::Release);
        drop(self.shared.gc_mu.lock());
        self.shared.gc_cv.notify_all();
    }

    /// Stops and joins the thread (see the module docs, § Shutdown).
    /// Idempotent; also run by `Drop`.
    pub(crate) fn shutdown_and_join(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        drop(self.shared.gc_mu.lock());
        self.shared.gc_cv.notify_all();
        if let Some(t) = self.gc.take() {
            let _ = t.join();
        }
    }
}

impl Drop for MaintenanceHub {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

/// The background GC thread: purge `shards_per_pass` shards of every table
/// per tick, at the pinned safe horizon, behind a wrapping shard cursor.
fn gc_loop(
    shared: &HubShared,
    catalog: &Catalog,
    txns: &TransactionManager,
    metrics: &EngineMetrics,
    interval: Duration,
    shards_per_pass: usize,
) {
    let mut cursor = 0usize;
    loop {
        // Interval wait, cut short by step_gc or shutdown.
        {
            let mut guard = shared.gc_mu.lock();
            let deadline = Instant::now() + interval;
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if shared.gc_force.swap(false, Ordering::AcqRel) {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                shared.gc_cv.wait_for(&mut guard, deadline - now);
            }
        }
        shared.observe(MaintenanceEvent::GcPassStart {
            first_shard: cursor,
        });
        let t0 = Instant::now();
        let horizon = txns.gc_horizon();
        let mut stats = PurgeStats::at(horizon);
        for table in catalog.tables() {
            for i in 0..shards_per_pass.min(SHARD_COUNT) {
                stats.merge(&table.purge_shard(cursor + i, horizon));
            }
        }
        cursor = (cursor + shards_per_pass) % SHARD_COUNT;
        txns.stats().record_purge(&stats, true);
        let elapsed = t0.elapsed();
        metrics.gc_pass.record(elapsed);
        metrics.trace.emit(
            EventKind::GcPass,
            stats.versions,
            stats.chains,
            elapsed.as_nanos() as u64,
        );
        shared.observe(MaintenanceEvent::GcPassEnd {
            versions: stats.versions,
            chains: stats.chains,
        });
    }
}
