//! Engine configuration.
//!
//! The options mirror the experimental dimensions of the thesis: lock and
//! conflict-detection granularity (row-level like InnoDB vs page-level like
//! Berkeley DB), the basic vs enhanced conflict representation of Secs. 3.2
//! and 3.6, the SIREAD-upgrade optimization of Sec. 3.7.3, abort-early
//! (Sec. 3.7.1), and the mixed mode that runs read-only transactions at plain
//! SI (Sec. 3.8). Sec. 6.1's "flush at commit" is [`Durability::GroupCommit`].

use std::num::NonZeroU64;
use std::path::PathBuf;
use std::time::Duration;

use ssi_common::IsolationLevel;
use ssi_lock::LockConfig;

/// Granularity at which locks are taken and read-write conflicts detected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LockGranularity {
    /// InnoDB-style row-level locking with gap locks for phantom detection.
    Row,
    /// Berkeley-DB-style page-level locking: keys are hashed onto `pages`
    /// pages and all locks name the page, so unrelated rows that share a
    /// page conflict with each other (Sec. 4.2, Sec. 6.1.5).
    Page {
        /// Number of pages each table's keys are spread over.
        pages: u64,
    },
}

impl LockGranularity {
    /// True for page-level granularity.
    pub fn is_page(&self) -> bool {
        matches!(self, LockGranularity::Page { .. })
    }
}

/// Which representation of rw-conflict flags the SSI implementation uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SsiVariant {
    /// Two boolean flags per transaction (Sec. 3.2, Figs. 3.1–3.5). Simple
    /// but aborts in some serializable interleavings (Fig. 3.8).
    Basic,
    /// Transaction references plus commit-time ordering checks (Sec. 3.6,
    /// Figs. 3.9–3.10), reducing false positives. This matches the InnoDB
    /// prototype and is the default.
    #[default]
    Enhanced,
}

/// Options specific to the Serializable SI algorithm.
#[derive(Clone, Debug)]
pub struct SsiOptions {
    /// Conflict-flag representation.
    pub variant: SsiVariant,
    /// Drop a transaction's SIREAD lock on an item when it acquires the
    /// EXCLUSIVE lock on the same item (read-modify-write), Sec. 3.7.3.
    pub upgrade_siread: bool,
    /// Abort a pivot as soon as both conflicts are present rather than
    /// waiting for its commit (Sec. 3.7.1).
    pub abort_early: bool,
}

impl Default for SsiOptions {
    fn default() -> Self {
        SsiOptions {
            variant: SsiVariant::Enhanced,
            upgrade_siread: true,
            abort_early: true,
        }
    }
}

/// When (and whether) committed write sets reach stable storage. See the
/// `ssi-wal` crate docs for the log format and the group-commit protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Durability {
    /// Pure in-memory operation (the default): no log, no recovery, no
    /// change to any existing code path.
    #[default]
    Off,
    /// Commits are appended to the redo log in publication order but
    /// `commit` does not wait for `fsync`; the device is synced at
    /// checkpoints and on clean close. A crash may lose a suffix of
    /// recently acknowledged commits, never a non-prefix subset.
    Buffered,
    /// `commit` returns only after an `fsync` covering the transaction's
    /// commit timestamp. Concurrent committers share flushes (group
    /// commit), so the per-commit fsync cost amortizes under load.
    GroupCommit,
}

/// Configuration of the background maintenance subsystem (the
/// [`crate::maintenance::MaintenanceHub`]): a dedicated WAL flusher thread
/// and an incremental version-GC thread, both owned by the database, started
/// from `Database::try_open` and joined on drop.
#[derive(Clone, Debug)]
pub struct MaintenanceOptions {
    /// Run a dedicated WAL flusher thread with this maximum batch delay:
    /// in [`Durability::GroupCommit`] committers enqueue and park instead
    /// of self-electing, and the flusher fsyncs the sealed prefix once the
    /// batch is this old (or [`MaintenanceOptions::flush_max_bytes`] trips)
    /// — so batch size is no longer bounded by natural committer pile-up,
    /// at a worst-case acknowledged-commit latency of roughly this delay
    /// plus one fsync. In [`Durability::Buffered`] the same thread bounds
    /// the crash-loss window: the sealed tail reaches the device within
    /// this delay instead of at the next checkpoint or clean close.
    /// `None` (the default) keeps committer-elected group commit. Ignored
    /// when durability is off.
    pub flush_max_delay: Option<Duration>,
    /// Size threshold of the dedicated flusher: fsync early once this many
    /// bytes have been sealed since the last sync, regardless of age.
    pub flush_max_bytes: u64,
    /// Run a background GC thread purging row versions incrementally —
    /// [`MaintenanceOptions::gc_shards_per_pass`] storage shards per table
    /// per pass — on this cadence, at the pinned safe horizon. Replaces
    /// the inline [`Options::purge_every_commits`] work on committers
    /// (which is skipped while the thread runs): the commit path does zero
    /// purge work. `None` (the default) starts no thread.
    pub gc_interval: Option<Duration>,
    /// Storage shards each background GC pass purges per table (clamped to
    /// at least 1). Smaller values spread reclamation thinner; a full
    /// table sweep completes every `SHARD_COUNT / gc_shards_per_pass`
    /// intervals.
    pub gc_shards_per_pass: usize,
    /// How many times the dedicated flusher retries a *transient* fsync
    /// failure before poisoning the log (see the `ssi-wal` crate docs,
    /// § Failure handling). While un-fsynced frames are buffered for
    /// re-emission, a failed range is never re-fsynced as if nothing
    /// happened — retries re-write it to a fresh segment. `0` disables
    /// retrying (and the re-emission buffer): the first failure poisons,
    /// as committer-elected group commit always does.
    pub flush_retry_budget: u32,
    /// Delay between flusher retry attempts.
    pub flush_retry_backoff: Duration,
}

impl Default for MaintenanceOptions {
    fn default() -> Self {
        MaintenanceOptions {
            flush_max_delay: None,
            flush_max_bytes: 1 << 20,
            gc_interval: None,
            gc_shards_per_pass: 16,
            flush_retry_budget: 4,
            flush_retry_backoff: Duration::from_millis(5),
        }
    }
}

/// A pluggable storage backend for the durability subsystem: everything the
/// WAL, checkpointer and recovery do on disk goes through this handle. The
/// default (`None` in [`DurabilityOptions::vfs`]) is the real filesystem;
/// tests inject `ssi_wal::FaultVfs` to script disk failures.
#[derive(Clone)]
pub struct VfsHandle(pub std::sync::Arc<dyn ssi_wal::Vfs>);

impl std::fmt::Debug for VfsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("VfsHandle(..)")
    }
}

/// Configuration of the durability subsystem.
#[derive(Clone, Debug, Default)]
pub struct DurabilityOptions {
    /// Durability mode.
    pub mode: Durability,
    /// Storage backend; `None` (the default) uses the real filesystem
    /// through one virtual pointer hop. See [`VfsHandle`].
    pub vfs: Option<VfsHandle>,
    /// Directory holding log segments and checkpoint snapshots. Required
    /// unless `mode` is [`Durability::Off`]; created if missing; recovered
    /// from if non-empty.
    pub dir: Option<PathBuf>,
    /// Take a checkpoint automatically once this many bytes have been
    /// appended to the log since the last one. `None` (the default) leaves
    /// checkpointing to explicit `Database::checkpoint` calls.
    pub checkpoint_every_bytes: Option<u64>,
}

/// Top-level engine options.
#[derive(Clone, Debug)]
pub struct Options {
    /// Isolation level used by [`crate::Database::begin`].
    pub default_isolation: IsolationLevel,
    /// Locking / conflict-detection granularity.
    pub granularity: LockGranularity,
    /// Durability: on-disk redo log, group commit, checkpoints, recovery.
    pub durability: DurabilityOptions,
    /// Serializable-SI-specific options.
    pub ssi: SsiOptions,
    /// Detect phantoms (row-granularity only; page locks subsume this,
    /// Sec. 3.5): S2PL takes gap locks on scans, inserts and deletes;
    /// Serializable SI reports the first live version of a key to the scans
    /// whose range contains it, and registers index scans' entry ranges.
    pub detect_phantoms: bool,
    /// Run transactions declared read-only at plain SI even when the
    /// database default is Serializable SI (Sec. 3.8).
    pub read_only_queries_at_si: bool,
    /// Record per-transaction read/write sets so the multiversion
    /// serialization graph can be checked after a run (used by tests; adds
    /// overhead, off by default).
    pub record_history: bool,
    /// Run one version-GC pass automatically after every this many write
    /// commits (single-flight: the committer that trips the threshold runs
    /// it, concurrent committers never queue behind it). The pass purges at
    /// the pinned safe horizon, so it can never reclaim a version a live —
    /// or concurrently starting — snapshot still needs. `None` (the
    /// default) leaves reclamation to explicit
    /// [`crate::Database::purge`] calls.
    pub purge_every_commits: Option<NonZeroU64>,
    /// Background maintenance threads (dedicated WAL flusher, incremental
    /// version GC).
    pub maintenance: MaintenanceOptions,
    /// Lock manager configuration.
    pub lock: LockConfig,
    /// Capacity (in events) of the lock-free engine event trace, drained
    /// with [`crate::Database::drain_trace`]. `None` (the default) disables
    /// tracing entirely — every emit site reduces to one branch.
    pub trace_capacity: Option<usize>,
    /// In-engine latency histograms sample 1 in `2^latency_sample_shift`
    /// hot-path operations (commits, reads, scans). The default of 6 (1 in
    /// 64) keeps the clean-path overhead within benchmark noise; 0 records
    /// every operation. Rare events (fsync, checkpoint, GC pass) are always
    /// recorded regardless.
    pub latency_sample_shift: u32,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            default_isolation: IsolationLevel::SerializableSnapshotIsolation,
            granularity: LockGranularity::Row,
            durability: DurabilityOptions::default(),
            ssi: SsiOptions::default(),
            detect_phantoms: true,
            read_only_queries_at_si: false,
            record_history: false,
            purge_every_commits: None,
            maintenance: MaintenanceOptions::default(),
            lock: LockConfig::default(),
            trace_capacity: None,
            latency_sample_shift: 6,
        }
    }
}

impl Options {
    /// Options resembling the InnoDB prototype: row-level locks, gap locks,
    /// enhanced conflict tracking. This is the default.
    pub fn innodb_like() -> Self {
        Options::default()
    }

    /// Options resembling the Berkeley DB prototype: page-level locks and
    /// the basic (boolean-flag) conflict representation (Sec. 4.3).
    pub fn berkeley_like(pages: u64) -> Self {
        Options {
            granularity: LockGranularity::Page { pages },
            ssi: SsiOptions {
                variant: SsiVariant::Basic,
                ..SsiOptions::default()
            },
            detect_phantoms: false,
            ..Options::default()
        }
    }

    /// Sets the default isolation level.
    pub fn with_isolation(mut self, level: IsolationLevel) -> Self {
        self.default_isolation = level;
        self
    }

    /// Enables history recording for the serializability verifier.
    pub fn with_history(mut self) -> Self {
        self.record_history = true;
        self
    }

    /// Enables the durability subsystem in the given mode, storing the log
    /// and checkpoints under `dir` (recovered from if non-empty).
    pub fn with_durability(mut self, mode: Durability, dir: impl Into<PathBuf>) -> Self {
        self.durability.mode = mode;
        self.durability.dir = Some(dir.into());
        self
    }

    /// Routes all durable I/O through the given [`ssi_wal::Vfs`] (fault
    /// injection for tests; see [`DurabilityOptions::vfs`]).
    pub fn with_vfs(mut self, vfs: std::sync::Arc<dyn ssi_wal::Vfs>) -> Self {
        self.durability.vfs = Some(VfsHandle(vfs));
        self
    }

    /// Enables automatic version GC every `every_commits` write commits
    /// (see [`Options::purge_every_commits`]). Panics if `every_commits`
    /// is zero.
    pub fn with_auto_purge(mut self, every_commits: u64) -> Self {
        self.purge_every_commits =
            Some(NonZeroU64::new(every_commits).expect("purge_every_commits must be non-zero"));
        self
    }

    /// Runs a dedicated WAL flusher thread with the given maximum batch
    /// delay (see [`MaintenanceOptions::flush_max_delay`]).
    pub fn with_background_flusher(mut self, max_delay: Duration) -> Self {
        self.maintenance.flush_max_delay = Some(max_delay);
        self
    }

    /// Runs a background incremental-GC thread on the given cadence (see
    /// [`MaintenanceOptions::gc_interval`]).
    pub fn with_background_gc(mut self, interval: Duration) -> Self {
        self.maintenance.gc_interval = Some(interval);
        self
    }

    /// Enables the engine event trace with room for `capacity` events (see
    /// [`Options::trace_capacity`]). Panics if `capacity` is zero.
    pub fn with_tracing(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "trace capacity must be non-zero");
        self.trace_capacity = Some(capacity);
        self
    }

    /// Sets the latency-histogram sampling shift (see
    /// [`Options::latency_sample_shift`]).
    pub fn with_latency_sample_shift(mut self, shift: u32) -> Self {
        self.latency_sample_shift = shift;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_innodb_prototype() {
        let o = Options::default();
        assert_eq!(
            o.default_isolation,
            IsolationLevel::SerializableSnapshotIsolation
        );
        assert_eq!(o.granularity, LockGranularity::Row);
        assert_eq!(o.ssi.variant, SsiVariant::Enhanced);
        assert!(o.ssi.upgrade_siread);
        assert!(o.detect_phantoms);
        assert!(!o.record_history);
    }

    #[test]
    fn berkeley_profile_uses_pages_and_basic_flags() {
        let o = Options::berkeley_like(100);
        assert_eq!(o.granularity, LockGranularity::Page { pages: 100 });
        assert!(o.granularity.is_page());
        assert_eq!(o.ssi.variant, SsiVariant::Basic);
        assert!(!o.detect_phantoms);
    }

    #[test]
    fn durability_defaults_off_and_builder_sets_dir() {
        let o = Options::default();
        assert_eq!(o.durability.mode, Durability::Off);
        assert!(o.durability.dir.is_none());
        assert!(o.durability.checkpoint_every_bytes.is_none());
        let o = Options::default().with_durability(Durability::GroupCommit, "/tmp/x");
        assert_eq!(o.durability.mode, Durability::GroupCommit);
        assert_eq!(
            o.durability.dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
    }

    #[test]
    fn auto_purge_defaults_off_and_builder_sets_cadence() {
        assert!(Options::default().purge_every_commits.is_none());
        let o = Options::default().with_auto_purge(64);
        assert_eq!(o.purge_every_commits.map(|n| n.get()), Some(64));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn auto_purge_rejects_zero_cadence() {
        let _ = Options::default().with_auto_purge(0);
    }

    #[test]
    fn builder_helpers() {
        let o = Options::default()
            .with_isolation(IsolationLevel::SnapshotIsolation)
            .with_history();
        assert_eq!(o.default_isolation, IsolationLevel::SnapshotIsolation);
        assert!(o.record_history);
    }
}
