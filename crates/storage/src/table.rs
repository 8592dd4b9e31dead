//! Sharded ordered multi-version tables.
//!
//! A table maps byte-string keys to *version chains*. The
//! table itself performs no concurrency control beyond keeping its own data
//! structures consistent: deciding who may write, when a write must abort and
//! what a reader is allowed to see is the job of `ssi-core`. The table does
//! provide the visibility primitives that the paper's algorithm needs:
//!
//! * reading returns not only the visible version but also the creators of
//!   any *newer* versions (the "version that it reads … is not the most
//!   recent version" signal of Fig. 3.4);
//! * the newest committed timestamp of a key, which implements the
//!   first-committer-wins check;
//! * the row-granularity SIREAD itself: a Serializable-SI point read
//!   registers its transaction on the chain it reads, a range scan registers
//!   its bounds with the table ([`crate::range`]), and the install of a
//!   version reports who is registered on the row and whose range contains
//!   the key (§ SIREAD on the row, § Why scans stay consistent);
//! * phantom protection at every level (Sec. 3.5): an S2PL scan registers
//!   its bounds too, as a blocking range, and the install that links a new
//!   key into it reports the holder, for whom the writer must wait.
//!
//! # Architecture: two-level sharded layout
//!
//! Earlier revisions stored every row behind one table-wide
//! `RwLock<BTreeMap<…>>`, so all point reads, writes and rollbacks on a
//! table serialized on a single lock. The table is now split in two levels:
//!
//! * a **sharded hash index** (`SHARD_COUNT` shards, FxHash from
//!   `ssi_lock`): each shard is a small `RwLock<HashMap<key, Arc<RowChain>>>`
//!   mapping a key to its version chain. Point operations touch exactly one
//!   shard;
//! * a **side ordered index** (`RwLock<BTreeMap<key, Arc<RowChain>>>`)
//!   holding the same `Arc<RowChain>` entries, used only by range scans.
//!
//! Each [`RowChain`] owns its version list and its set of SIREAD holders
//! behind one `parking_lot` mutex of its own, so two operations contend only
//! when they touch the *same key*.
//! Commit stamping ([`Version::mark_committed`]) is an atomic store on the
//! version itself and takes no table lock at all.
//!
//! ## Locking protocol
//!
//! Lock order is **shard → chain** and **shard → ordered index**, and the
//! chain mutex is never held while acquiring the ordered-index lock (scans
//! take *index → chain*, so holding a chain while waiting on the index
//! could deadlock). Below all of them sits the mutex of a range list
//! ([`crate::range`]), a leaf: **chain → ranges** (the install of a version
//! onto a mapped chain), **ordered index → ranges** (the first version of a
//! new key, under the index write lock) and **entry map → ranges** (the
//! ranges of a secondary index, under the write lock of its entry map that
//! adds the entry); registering and releasing a range take it alone, and
//! nothing is ever acquired under it.
//! The invariants:
//!
//! * a chain present in either map is the unique chain for its key; both
//!   maps always agree (they are updated while holding the shard write
//!   lock, which is the insert/remove serialization point for a key);
//! * versions are only pushed (at the newest end) while holding the shard
//!   **read** lock plus the chain mutex, and a read that reaches a chain by
//!   key registers on it under the same two — so a shard **write** lock
//!   alone is enough to freeze a chain's versions and readers for removal
//!   decisions;
//! * a chain is dead when it is unmapped, and only a chain with no reader is
//!   ever unmapped. Removal happens under the shard write lock (excluding
//!   installers and registering reads by key) plus the chain mutex: it
//!   checks that no reader is registered, empties the chain and unlinks it
//!   from both maps. From then on the chain has no version, for good — no
//!   installer can find it — so a scan that still holds its `Arc` observes
//!   an empty chain and skips the key. A
//!   *mapped* chain may be without versions too: a rolled-back insert leaves
//!   it behind when somebody read the key meanwhile, and the key's next
//!   insert pushes onto it — a push that links the key all the same
//!   (§ Why scans stay consistent). [`Table::purge_shard`] unmaps
//!   such a chain once its readers are gone. Between its shard and the
//!   ordered index a chain is unmapped in two steps, so the index can list a
//!   dead chain for a moment; whoever finds one there treats it as absent.
//!
//! ### The order of a chain
//!
//! A chain is stored oldest first and read newest first. Going from the
//! newest version, and leaving aborted versions aside, a chain holds
//!
//! 1. the uncommitted versions of **one** transaction — the holder of the
//!    key's EXCLUSIVE lock — then
//! 2. committed versions in non-increasing commit-timestamp order.
//!
//! The table does not enforce this, the engine's write protocol does: every
//! isolation level takes the EXCLUSIVE lock before [`Table::install`] and
//! keeps it until its versions are stamped committed (or marked aborted and
//! unlinked), and commit timestamps come from one counter, so the next
//! writer of the key commits later than everything already in the chain. A
//! version is stamped only once its creator's commit has settled, so the
//! stamp is final: an uncommitted version turns committed or aborted, never
//! back.
//! Recovery replays commits in timestamp order on top of a checkpoint that
//! holds one version per key, which builds the same order. `install`
//! `debug_assert`s the invariant over the newest few versions.
//!
//! Everything a point operation does leans on it, which is what makes its
//! cost depend on the versions newer than its snapshot and never on history:
//!
//! * a snapshot read stops at the first version that is visible to it: all
//!   beneath is older committed history;
//! * the newest commit timestamp — the first-committer-wins check — is that
//!   of the first committed version from the newest end
//!   ([`Table::write_probe`]);
//! * history is a prefix of the stored order, so reclaiming it
//!   (`reclaimable_prefix`) walks from the oldest end and stops at the
//!   first version that has to stay.
//!
//! ### Who may shorten a chain
//!
//! Versions leave a chain in three ways, each under the key's shard lock
//! (read is enough) plus the chain mutex, with the index entry references of
//! what is removed released in the same critical section:
//!
//! * **rollback** ([`Table::unlink_version`]) removes the caller's own
//!   aborted version;
//! * **the purge pass** ([`Table::purge_shard`]) drops, at a safe horizon,
//!   everything older than the newest version committed at or below it,
//!   plus aborted leftovers, and afterwards removes keys that are down to a
//!   dead tombstone (under the shard *write* lock);
//! * **the writer** ([`Table::install`]): one that finds the chain longer
//!   than a small bound asks its caller for the horizon — lazily, under the
//!   chain mutex, so the caller's answer must not block — and drops what the
//!   pass would (`Table::drop_reclaimable` is the one rule both use). Hot
//!   rows are therefore kept short by the transactions that make them long,
//!   and the pass is left with cold rows, tombstoned keys and aborted
//!   leftovers.
//!
//! ## SIREAD on the row
//!
//! The paper's SIREAD lock never blocks and is never waited for; it exists so
//! that the writer of a row can find the row's readers. At row granularity
//! it is therefore kept as row metadata: `readers`, a small set of
//! transaction ids beside the versions, under the chain mutex every read and
//! every install takes anyway. They are the row's *point* readers; a range
//! scan registers nothing on a chain (§ Why scans stay consistent).
//!
//! * **Read** ([`Table::read_registering`]). One critical section reads the
//!   visible version, collects the creators of newer ones and adds the
//!   reader to `readers`.
//! * **Write** ([`Table::install`]). The critical section that pushes the
//!   version reports `readers` to the writer, and drops the writer's own id
//!   (the Sec. 3.7.3 upgrade). [`Table::probe_for_update`] does the same for
//!   a locking read.
//! * **Why nothing is missed.** The chain mutex orders the two. A read that
//!   comes first is in `readers` when the version goes in and is reported to
//!   the writer; a read that comes second finds the version in the chain and
//!   reports its creator (or sees it as its snapshot, if it committed
//!   first). The lock table needed a lock-then-read order and an argument
//!   over three cases for the same guarantee, because its SIREAD and the
//!   chain were two places; here they are one. What a read no longer sees is
//!   a transaction that holds the key's EXCLUSIVE lock and has installed
//!   nothing yet. It has no need to: when that transaction installs, the
//!   read is reported to it, and if it never does the row did not change.
//! * **Release** ([`RowHandle::release_siread`]) is eager and exact, as in
//!   the lock table: a holder is in `readers` exactly while its transaction
//!   is active or committed-and-suspended. The transaction keeps one
//!   [`RowHandle`] per registration and the engine releases through them
//!   when it aborts or is cleaned up.
//! * **A registration must land where the next writer looks**, which is the
//!   chain the key maps to: the shard read lock is held across lookup and
//!   registration, and a chain with a reader is not unmapped (§ Locking
//!   protocol). The price is paid by deleted keys: a dead tombstone leaves
//!   the table at the first purge pass that finds no reader on it, which a
//!   key that is point-read without pause can put off for as long as the
//!   reading lasts.
//! * **A key with no chain** has nothing to register on. The caller is told
//!   ([`Siread::NoChain`]) and leaves an ordinary SIREAD lock on the key in
//!   the lock table, where the key's first writer — who takes its EXCLUSIVE
//!   lock there at every isolation level — finds it. Page SIREADs, and every
//!   blocking lock, stay in the lock table as well; this module knows nothing
//!   of them.
//!
//! ## Why scans stay consistent
//!
//! A scan never holds the ordered-index lock while it looks at rows, so a
//! writer may install a version — even the first version of a brand-new key
//! — while a scan is in flight. The scan protocol is built so that this
//! never hides a read-write conflict from Serializable SI, and never lets a
//! phantom into an S2PL scan. The scanner **registers, then lists, then
//! reads**; the writer **makes its version reachable, then looks for
//! ranges**, both inside one critical section.
//!
//! 1. **Register.** Before it lists its first page the engine registers the
//!    scan's bounds and its transaction with the table
//!    ([`Table::register_range`]): one entry in the table's range list
//!    ([`crate::range`]), whatever the number of rows. That is the whole
//!    predicate lock of the scan — an SIREAD at Serializable SI, a blocking
//!    `Shared` range at S2PL. It covers every row and every gap between the
//!    bounds, and a key that enters the range later is covered by lying in
//!    it: nothing is copied to it, nothing is looked up on its neighbours.
//! 2. **List handles, not values.** [`ScanCursor::next_page`] takes the
//!    ordered-index read lock once and copies out up to a page of
//!    [`ScanRow`]s — the key (`Arc<[u8]>`, shared with the index) and a
//!    handle to its version chain. No chain is read yet.
//! 3. **Read**, each chain once, through [`Table::read_row`]: exactly what a
//!    snapshot-isolation scan does. The read reports the creators of the
//!    versions it skipped, and those are the scan's conflicts. A handle whose
//!    chain died since the page was taken (rollback of an insert, purge of an
//!    old tombstone) reads as empty; the key is then re-resolved through its
//!    hash shard, so a chain re-created for the same key is not missed. At
//!    S2PL the engine takes the row's SHARED record lock first and reads the
//!    latest committed version under it.
//!
//! The writer's side is [`Table::install`]: in the critical section that
//! makes the version reachable — the chain mutex for a mapped chain, the
//! ordered-index write lock for the first version of a new key — and after
//! the push or the link, it asks the range list for the holders of every
//! SIREAD range that contains its key ([`Installed::range_readers`]) and,
//! for a link only, of every `Shared` one ([`Installed::blocked_by`]).
//!
//! **Why nothing is missed.** For a row that exists the two meet on its chain
//! mutex. A read that comes first belongs to a scan that registered before
//! it took that mutex, so the install that follows finds the range; a read
//! that comes second finds the version in the chain and reports its creator.
//! For a new key they meet on the ordered-index lock: a listing either
//! follows the link — the key is listed, and its read reports the creator —
//! or precedes it, and the range was registered before the listing. (A key
//! whose listed chain was unmapped and re-created meets its new writer on the
//! shard lock in the same way.) Lock hand-over orders the accesses; there is
//! no fence and no second pass. An SIREAD range is removed only when its
//! holder aborts or is reclaimed, that is, when no transaction that could
//! still conflict with it is left. An update and a delete are found like an
//! insert: the tombstone's install looks for ranges as any other.
//!
//! At S2PL the same two orders decide who waits for whom. A key the listing
//! has, on a chain that holds a version ([`RowHandle::holds_version`]), is
//! locked SHARED by the scanner, so its writer's EXCLUSIVE lock and the
//! scanner's SHARED one order the two in the lock table. Any other key —
//! new, or on a chain a reader keeps mapped with no version, which the
//! scanner skips without a lock — is *linked* by its next install, which
//! reports the holder: the engine undoes the install and waits for the
//! scanner to finish (`crate::range`, the undo-then-wait rule).
//!
//! **What the writer pays.** A write to a table with live ranges compares
//! its key with each of them: O(live range scans of that table) instead of
//! O(rows) work on the scanner and on whoever reclaims it; a table that is
//! never range-scanned at Serializable SI or S2PL pays one relaxed load per
//! install. SI and read-committed scans and [`Table::scan`] register nothing
//! and run over the same cursor and the same [`Table::read_row`].
//!
//! ## Secondary index maintenance
//!
//! Tables carry a (usually empty) list of registered secondary indexes
//! ([`crate::index::Index`]). Index entries are refcounted by *chain
//! residency*, never by commit state: [`Table::install`] adds one
//! entry reference for the new version's extracted key,
//! [`Table::unlink_version`] and version GC (the pass and the pruning
//! writer alike) release one reference per version they physically remove. Every add/release happens under the
//! version's shard lock (the same critical section that changes chain
//! membership), and [`Table::register_index`] backfills a new index while
//! holding **every** shard write lock — so the refcount invariant ("one
//! reference per resident version extracting to the entry") can never be
//! double-counted or skipped by a concurrent install, rollback or purge.
//! Superseded entries linger until GC reclaims the versions that claim
//! them; readers re-extract from the row version their snapshot actually
//! sees and filter stale entries (see the `crate::index` module docs).

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasher;
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use ssi_common::{Bytes, InlineVec, TableId, Timestamp, TxnId, TS_ZERO};
use ssi_lock::FxBuildHasher;

use crate::index::Index;
use crate::range::{RangeHandle, RangeMode, RangeReaders};
use crate::version::{Version, VersionState};

/// Number of hash shards per table. Power of two so the shard selector is a
/// mask; 64 matches the lock manager's sharding and is comfortably above
/// typical core counts. Public so incremental maintenance (per-shard purge
/// cursors in `ssi-core`) can walk the shard space.
pub const SHARD_COUNT: usize = 64;

/// Keys fetched per ordered-index lock acquisition by the paging scan
/// cursor: large enough that per-page overhead is negligible, small enough
/// that a scan never pins the index (or a page of chain handles) for long.
pub const SCAN_PAGE_SIZE: usize = 128;

/// Inline capacity of [`VisibleRead::newer_creators`]: nearly all reads see
/// zero or one concurrent writer, so four inline slots make allocation on
/// the read path effectively impossible.
const NEWER_INLINE: usize = 4;

/// Creators of versions newer than the one a read observed, stored inline.
pub type NewerCreators = InlineVec<TxnId, NEWER_INLINE>;

/// The transactions registered as SIREAD holders of a row, as reported to a
/// writer (see [`Installed::readers`]).
pub type RowReaders = InlineVec<TxnId, NEWER_INLINE>;

/// Result of a snapshot read of one key.
#[derive(Clone, Debug, Default)]
pub struct VisibleRead {
    /// The visible value, if any (and not a tombstone). A refcounted handle
    /// to the version's payload — cloning it never copies the bytes.
    pub value: Option<Bytes>,
    /// Creators of versions newer than the version that was read (both
    /// uncommitted ones and ones committed after the reader's snapshot).
    /// Each is a potential rw-antidependency for Serializable SI.
    pub newer_creators: NewerCreators,
    /// True if the key has at least one (non-aborted) version at all.
    pub key_exists: bool,
    /// Commit timestamp of the version that was read (`None` when nothing
    /// was visible or when the reader saw its own uncommitted write). Used
    /// by the history recorder / serializability verifier.
    pub read_version_ts: Option<Timestamp>,
    /// True if the read was satisfied by the reader's own uncommitted write;
    /// such reads impose no inter-transaction ordering constraints.
    pub read_own_write: bool,
}

/// One row produced by a snapshot range scan.
#[derive(Clone, Debug)]
pub struct ScanEntry {
    /// The row key, shared with the table's ordered index.
    pub key: Arc<[u8]>,
    /// Visible value (`None` when the visible version is a tombstone or no
    /// version is visible to the snapshot). Entries with `None` are still
    /// reported so the caller can register conflicts for them.
    pub value: Option<Bytes>,
    /// Creators of versions newer than the visible one (see
    /// [`VisibleRead::newer_creators`]).
    pub newer_creators: NewerCreators,
    /// Commit timestamp of the version that was read (see
    /// [`VisibleRead::read_version_ts`]).
    pub read_version_ts: Option<Timestamp>,
    /// True if the visible version was the reader's own uncommitted write
    /// (see [`VisibleRead::read_own_write`]).
    pub read_own_write: bool,
}

/// What one garbage-collection pass reclaimed (see
/// [`Table::purge_old_versions`]). Aggregates with [`PurgeStats::merge`], so
/// a catalog-wide purge reports one combined figure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PurgeStats {
    /// Horizon the purge ran at: every version kept is reachable from some
    /// snapshot at or above this timestamp.
    pub horizon: Timestamp,
    /// Versions reclaimed (unreachable committed versions plus aborted
    /// leftovers).
    pub versions: u64,
    /// Whole key chains removed (keys whose only reachable version was a
    /// committed tombstone at or below the horizon).
    pub chains: u64,
}

impl PurgeStats {
    /// An empty result at `horizon`.
    pub fn at(horizon: Timestamp) -> Self {
        PurgeStats {
            horizon,
            ..PurgeStats::default()
        }
    }

    /// Folds another purge result in (sums counters, keeps the highest
    /// horizon).
    pub fn merge(&mut self, other: &PurgeStats) {
        self.horizon = self.horizon.max(other.horizon);
        self.versions += other.versions;
        self.chains += other.chains;
    }
}

/// An opaque handle to the version chain of one row. A [`ScanPage`] carries
/// one per listed row, so the row is read without a lookup by key; a
/// Serializable-SI transaction keeps one per row it registered an SIREAD on
/// ([`Siread::New`]) and releases the registration through it, with no lookup
/// either.
#[derive(Clone)]
pub struct RowHandle {
    chain: Arc<RowChain>,
}

impl RowHandle {
    /// Removes `reader` from the row's SIREAD holders. Returns whether it was
    /// registered (false after the reader's own write upgraded the
    /// registration away, see [`Table::install`]).
    pub fn release_siread(&self, reader: TxnId) -> bool {
        self.chain.state.lock().readers.remove(reader)
    }

    /// True if the chain holds a version that is not aborted; if not, the
    /// key's next install links it (module docs, § Why scans stay consistent).
    pub fn holds_version(&self) -> bool {
        write_probe(&self.chain.state.lock().versions).has_live_version
    }
}

impl std::fmt::Debug for RowHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("RowHandle")
    }
}

/// Where a registering read ([`Table::read_registering`]) left the reader's
/// SIREAD.
pub enum Siread {
    /// Newly registered on the row's chain. The caller keeps the handle
    /// until the reader's SIREADs are released (abort, or the cleanup of the
    /// suspended transaction).
    New(RowHandle),
    /// Nothing new to keep: the reader was registered on this chain already,
    /// or read its own uncommitted write (whose EXCLUSIVE lock covers it).
    Held,
    /// The key has no chain to register on. The caller falls back to an
    /// SIREAD on the key in the lock table, where the key's first writer
    /// will look for it.
    NoChain,
}

/// One row of a [`ScanPage`]: the key plus a handle to its version chain.
/// Nothing has been read yet; pass the row to [`Table::read_row`].
#[derive(Clone)]
pub struct ScanRow {
    /// The row key, shared with the table's ordered index.
    pub key: Arc<[u8]>,
    /// The row's chain as the page found it.
    pub handle: RowHandle,
}

impl std::fmt::Debug for ScanRow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScanRow").field("key", &self.key).finish()
    }
}

/// One page of a range scan (see [`ScanCursor::next_page`]).
#[derive(Debug)]
pub struct ScanPage {
    /// The keys the ordered index held in the page's range, in key order.
    pub rows: Vec<ScanRow>,
    /// True if the page reached the end of the scanned range. A page can be
    /// empty and last (the previous page ended exactly at the range's end).
    pub last: bool,
}

/// Paging handle over a key range (see [`Table::cursor`]). Each page costs
/// one ordered-index read-lock acquisition; the lock is not held between
/// pages, and no version chain is read by the cursor itself.
pub struct ScanCursor<'a> {
    table: &'a Table,
    lower: Bound<&'a [u8]>,
    upper: Bound<&'a [u8]>,
    /// Last key of the previous page: the next page starts after it.
    resume_after: Option<Arc<[u8]>>,
    exhausted: bool,
    page_size: usize,
}

impl<'a> ScanCursor<'a> {
    /// Overrides the page size (keys fetched per index-lock acquisition);
    /// exposed for tests and tuning.
    pub fn with_page_size(mut self, page_size: usize) -> Self {
        assert!(page_size > 0, "scan page size must be positive");
        self.page_size = page_size;
        self
    }

    /// Fetches the next page, or `None` after the page marked `last`.
    pub fn next_page(&mut self) -> Option<ScanPage> {
        if self.exhausted {
            return None;
        }
        let lower = match &self.resume_after {
            Some(key) => Bound::Excluded(&key[..]),
            None => self.lower,
        };
        let page = self.table.page(lower, self.upper, self.page_size);
        self.exhausted = page.last;
        if let Some(row) = page.rows.last() {
            self.resume_after = Some(row.key.clone());
        }
        Some(page)
    }

    /// Reads every row of the range as of `snapshot_ts` on behalf of
    /// `reader`, page by page: the plain snapshot scan, with no locking
    /// between fetching a page and reading it.
    pub fn entries(self, reader: TxnId, snapshot_ts: Timestamp) -> ScanEntries<'a> {
        ScanEntries {
            cursor: self,
            reader,
            snapshot_ts,
            page: Vec::new().into_iter(),
        }
    }
}

/// Iterator returned by [`ScanCursor::entries`].
pub struct ScanEntries<'a> {
    cursor: ScanCursor<'a>,
    reader: TxnId,
    snapshot_ts: Timestamp,
    page: std::vec::IntoIter<ScanRow>,
}

impl Iterator for ScanEntries<'_> {
    type Item = ScanEntry;

    fn next(&mut self) -> Option<ScanEntry> {
        loop {
            let Some(row) = self.page.next() else {
                self.page = self.cursor.next_page()?.rows.into_iter();
                continue;
            };
            let r = self
                .cursor
                .table
                .read_row(&row, self.reader, self.snapshot_ts);
            // A key whose versions were all rolled back or purged since the
            // page was taken no longer exists.
            if !r.key_exists {
                continue;
            }
            return Some(ScanEntry {
                key: row.key,
                value: r.value,
                newer_creators: r.newer_creators,
                read_version_ts: r.read_version_ts,
                read_own_write: r.read_own_write,
            });
        }
    }
}

/// Clones a borrowed key bound into an owned one (shared plumbing for the
/// cursor and for engine-level range code).
pub fn clone_bound(b: Bound<&[u8]>) -> Bound<Vec<u8>> {
    match b {
        Bound::Included(k) => Bound::Included(k.to_vec()),
        Bound::Excluded(k) => Bound::Excluded(k.to_vec()),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// Borrows an owned key bound as a slice bound.
pub fn as_ref_bound(b: &Bound<Vec<u8>>) -> Bound<&[u8]> {
    match b {
        Bound::Included(k) => Bound::Included(k.as_slice()),
        Bound::Excluded(k) => Bound::Excluded(k.as_slice()),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// A chain longer than this is pruned by the writer that finds it (see
/// [`Table::install`]). Small, so a hot row's chain stays a cache line or two
/// of handles; above one, so updating a row that holds a single version
/// never asks for the horizon.
const PRUNE_ABOVE: usize = 4;

/// What a writer needs to know about a key before it installs a version,
/// from one chain visit (see [`Table::write_probe`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WriteProbe {
    /// Commit timestamp of the newest committed version, regardless of
    /// snapshot: the first-committer-wins check compares it with the
    /// writer's snapshot.
    pub newest_committed_ts: Option<Timestamp>,
    /// True if the key has any non-aborted version (committed or not,
    /// tombstone or not): false means the write is an insert.
    pub has_live_version: bool,
}

/// What [`Table::install`] did and found.
#[derive(Debug)]
pub struct Installed {
    /// The new version, for commit stamping or rollback.
    pub version: Arc<Version>,
    /// Old versions the install dropped from the chain on its way (0 unless
    /// the chain was longer than the pruning bound).
    pub pruned: usize,
    /// The other transactions registered as SIREAD holders of the row when
    /// the version went in: each has an rw-antidependency on the creator.
    pub readers: RowReaders,
    /// The other transactions whose Serializable-SI range scan covers the
    /// version (one may be among `readers` as well): the holders of every
    /// live SIREAD range of the table that contains the key, and of every
    /// live SIREAD range of a secondary index that contains the entry the
    /// version added there — as of the critical section that made it
    /// reachable. Each has an rw-antidependency on the creator too.
    pub range_readers: RowReaders,
    /// The other transactions holding a `Shared` (S2PL) range that the
    /// install linked a key into — the key, new to the table or to a chain
    /// that held no version, or an entry new to a secondary index. Non-empty
    /// means the install must be undone and
    /// the creator must wait for each before installing again
    /// ([`crate::range`], the undo-then-wait rule).
    pub blocked_by: RowReaders,
    /// True if the creator's own registration was dropped (the Sec. 3.7.3
    /// upgrade: its EXCLUSIVE lock and first-committer-wins now cover it).
    pub upgraded: bool,
}

/// What a locking read needs from one chain visit (see
/// [`Table::probe_for_update`]).
#[derive(Debug, Default)]
pub struct ForUpdateProbe {
    /// The first-committer-wins probe.
    pub probe: WriteProbe,
    /// The other transactions registered as SIREAD holders of the row.
    pub readers: RowReaders,
    /// True if the caller's own registration was dropped.
    pub upgraded: bool,
}

/// The row-granularity SIREAD holders of one key: the transactions, active
/// or committed and suspended, that read the row under Serializable SI. A
/// row is read by few transactions at a time, so the first two live in the
/// chain itself and only a third allocates. 24 bytes, which is what a chain
/// may grow by: the table keeps one per key.
#[derive(Default)]
struct ReaderSet {
    /// [`TxnId::INVALID`] marks a free slot.
    inline: [TxnId; 2],
    /// Holders beyond the first two, unordered; dropped when it empties.
    /// Boxed so that an unused spill costs a chain 8 bytes, not a `Vec`'s 24.
    #[allow(clippy::box_collection)]
    spill: Option<Box<Vec<TxnId>>>,
}

impl ReaderSet {
    fn spilled(&self) -> &[TxnId] {
        self.spill.as_deref().map_or(&[], Vec::as_slice)
    }

    fn iter(&self) -> impl Iterator<Item = TxnId> + '_ {
        let inline = self.inline.iter().filter(|id| id.is_valid());
        inline.chain(self.spilled()).copied()
    }

    fn is_empty(&self) -> bool {
        // The spill is dropped with its last holder.
        self.inline == [TxnId::INVALID; 2] && self.spill.is_none()
    }

    /// Adds `reader`; false if it was a holder already.
    fn insert(&mut self, reader: TxnId) -> bool {
        debug_assert!(reader.is_valid());
        if self.iter().any(|id| id == reader) {
            return false;
        }
        match self.inline.iter_mut().find(|id| !id.is_valid()) {
            Some(slot) => *slot = reader,
            None => self.spill.get_or_insert_default().push(reader),
        }
        true
    }

    /// Removes `reader`; false if it was not a holder.
    fn remove(&mut self, reader: TxnId) -> bool {
        if let Some(slot) = self.inline.iter_mut().find(|id| **id == reader) {
            *slot = TxnId::INVALID;
            return true;
        }
        let Some(spill) = &mut self.spill else {
            return false;
        };
        let Some(at) = spill.iter().position(|id| *id == reader) else {
            return false;
        };
        spill.swap_remove(at);
        if spill.is_empty() {
            self.spill = None;
        }
        true
    }

    /// Every holder but `writer`, for the writer's conflict marking; drops
    /// `writer`'s own registration too (reported second: whether it held one).
    fn report_to(&mut self, writer: TxnId) -> (RowReaders, bool) {
        if self.is_empty() {
            // Every write below Serializable SI, and most above it.
            return (RowReaders::new(), false);
        }
        let readers = self.iter().filter(|id| *id != writer).collect();
        (readers, self.remove(writer))
    }
}

/// What a chain's mutex guards: the versions, **oldest first** — installing
/// is a push, pruning drops a prefix, and every reader walks them in reverse
/// (newest first); see the module docs, § Locking protocol, for the order
/// they are in — and the row's SIREAD holders.
struct ChainState {
    versions: Vec<Arc<Version>>,
    readers: ReaderSet,
}

impl ChainState {
    /// No version and no reader: nothing would be lost by unmapping.
    fn is_unused(&self) -> bool {
        self.versions.is_empty() && self.readers.is_empty()
    }
}

/// The version chain of one key, and the key's SIREAD holders, behind one
/// lock.
struct RowChain {
    state: Mutex<ChainState>,
}

impl RowChain {
    fn with_version(version: Arc<Version>) -> Arc<Self> {
        Arc::new(RowChain {
            state: Mutex::new(ChainState {
                versions: vec![version],
                readers: ReaderSet::default(),
            }),
        })
    }

    fn read_all(&self, reader: TxnId, snapshot_ts: Timestamp) -> VisibleRead {
        snapshot_read(&self.state.lock().versions, reader, snapshot_ts)
    }

    /// The Serializable-SI read: the snapshot read and the reader's SIREAD
    /// registration in one critical section, so every version pushed before
    /// it is in the read and every version pushed after it finds the reader.
    /// Returns whether the reader was newly registered; one that sees its
    /// own uncommitted write is not registered.
    fn read_registering(&self, reader: TxnId, snapshot_ts: Timestamp) -> (VisibleRead, bool) {
        let mut state = self.state.lock();
        let read = snapshot_read(&state.versions, reader, snapshot_ts);
        let fresh = !read.read_own_write && state.readers.insert(reader);
        (read, fresh)
    }

    /// Latest committed version, or the reader's own uncommitted write.
    fn read_latest(&self, reader: TxnId) -> VisibleRead {
        let state = self.state.lock();
        let mut latest = state.versions.iter().rev();
        let Some(v) = latest.find(|v| v.visible_to_read_committed(reader)) else {
            return VisibleRead::default();
        };
        // Visible and not committed: the reader's own.
        let read_version_ts = v.commit_ts();
        VisibleRead {
            value: v.value_handle(),
            key_exists: true,
            read_version_ts,
            read_own_write: read_version_ts.is_none(),
            ..VisibleRead::default()
        }
    }
}

/// The snapshot read: walks from the newest version and stops at the first
/// one that is visible. By the order invariant
/// everything beneath it is older committed history, so the walk costs the
/// versions newer than the snapshot and nothing else.
fn snapshot_read(versions: &[Arc<Version>], reader: TxnId, snapshot_ts: Timestamp) -> VisibleRead {
    let mut out = VisibleRead::default();
    for v in versions.iter().rev() {
        if v.state() == VersionState::Aborted {
            continue;
        }
        out.key_exists = true;
        if v.visible_to(reader, snapshot_ts) {
            out.value = v.value_handle();
            out.read_version_ts = v.commit_ts();
            out.read_own_write = v.creator() == reader;
            break;
        }
        // Not visible: newer than whatever will be read.
        out.newer_creators.push(v.creator());
    }
    out
}

/// Walks from the newest version to the first committed one: by the order
/// invariant that is the newest commit timestamp of the chain, and every
/// version passed on the way is the lock holder's own or aborted.
fn write_probe(versions: &[Arc<Version>]) -> WriteProbe {
    let mut probe = WriteProbe::default();
    for v in versions.iter().rev() {
        match v.state() {
            VersionState::Aborted => {}
            VersionState::Committed(ts) => {
                probe.has_live_version = true;
                probe.newest_committed_ts = Some(ts);
                break;
            }
            _ => probe.has_live_version = true,
        }
    }
    probe
}

/// True if all a chain holds is one tombstone committed at or below
/// `horizon`: the key is gone for every snapshot that can still ask.
fn is_dead_tombstone(versions: &[Arc<Version>], horizon: Timestamp) -> bool {
    matches!(versions, [only] if only.is_tombstone()
        && matches!(only.state(), VersionState::Committed(ts) if ts <= horizon))
}

/// How many of the chain's oldest versions no snapshot at or above `horizon`
/// can read: everything older than the newest version committed at or below
/// the horizon. Walks from the oldest end and stops at the first version that
/// is not reclaimable history, so it costs what it finds, not what is live.
fn reclaimable_prefix(versions: &[Arc<Version>], horizon: Timestamp) -> usize {
    let mut keep = 0;
    for (i, v) in versions.iter().enumerate() {
        match v.state() {
            VersionState::Committed(ts) if ts <= horizon => keep = i,
            // An aborted leftover goes with the history around it.
            VersionState::Aborted => {}
            _ => break,
        }
    }
    keep
}

/// The order invariant (module docs, § Locking protocol) over the newest
/// `depth` live versions of a chain that `writer`, holding the key's
/// EXCLUSIVE lock, is about to extend.
fn order_holds(versions: &[Arc<Version>], writer: TxnId, depth: usize) -> bool {
    let mut newer_commit: Option<Timestamp> = None;
    let live = versions
        .iter()
        .rev()
        .map(|v| (v.state(), v.creator()))
        .filter(|(state, _)| *state != VersionState::Aborted);
    for (state, creator) in live.take(depth) {
        match (state, newer_commit) {
            (VersionState::Committed(ts), Some(newer)) if ts > newer => return false,
            (VersionState::Committed(ts), _) => newer_commit = Some(ts),
            // Unsettled versions are the lock holder's, above all history.
            (_, None) if creator == writer => {}
            _ => return false,
        }
    }
    true
}

/// One hash shard of a table.
#[derive(Default)]
struct Shard {
    rows: RwLock<HashMap<Arc<[u8]>, Arc<RowChain>, FxBuildHasher>>,
}

/// A sharded, ordered multi-version table. See the module docs for the
/// layout and locking protocol.
pub struct Table {
    id: TableId,
    name: String,
    shards: Box<[Shard]>,
    /// Ordered side index over the same chains, for scans only. Point
    /// operations on existing keys never touch it.
    ordered: RwLock<BTreeMap<Arc<[u8]>, Arc<RowChain>>>,
    /// The live Serializable-SI and S2PL range scans of this table's keys
    /// (module docs, § Why scans stay consistent).
    ranges: Arc<RangeReaders>,
    /// Registered secondary indexes, maintained by the membership hooks
    /// (see the module docs). Lock order is always shard → this list.
    indexes: RwLock<Vec<Arc<Index>>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: TableId, name: impl Into<String>) -> Self {
        let shards = (0..SHARD_COUNT).map(|_| Shard::default()).collect();
        Table {
            id,
            name: name.into(),
            shards,
            ordered: RwLock::new(BTreeMap::new()),
            ranges: Arc::default(),
            indexes: RwLock::new(Vec::new()),
        }
    }

    /// Table identifier.
    pub fn id(&self) -> TableId {
        self.id
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    #[inline]
    fn shard(&self, key: &[u8]) -> &Shard {
        &self.shards[FxBuildHasher::default().hash_one(key) as usize & (SHARD_COUNT - 1)]
    }

    /// Looks up the chain for `key` (one shard read lock).
    #[cfg(test)]
    fn chain(&self, key: &[u8]) -> Option<Arc<RowChain>> {
        self.shard(key).rows.read().get(key).cloned()
    }

    /// Number of keys with at least one version (including tombstoned keys).
    pub fn key_count(&self) -> usize {
        self.ordered.read().len()
    }

    /// Snapshot read of `key` as of `snapshot_ts` on behalf of `reader`.
    /// One shard read lock, one chain lock, one chain traversal; the value
    /// comes back as a refcount bump, never a byte copy. The traversal
    /// runs under the shard read-lock guard, so no chain handle is cloned.
    pub fn read(&self, key: &[u8], reader: TxnId, snapshot_ts: Timestamp) -> VisibleRead {
        let rows = self.shard(key).rows.read();
        match rows.get(key) {
            None => VisibleRead::default(),
            Some(chain) => chain.read_all(reader, snapshot_ts),
        }
    }

    /// The Serializable-SI point read: [`Table::read`] that also registers
    /// `reader` as an SIREAD holder of the row, in the same chain critical
    /// section (see the module docs, § SIREAD on the row). The lookup, the
    /// read and the registration run under the shard read lock, which
    /// excludes the chain's removal, so the registration lands on the chain
    /// the key's next writer will find. A key without a chain has nothing to
    /// register on ([`Siread::NoChain`]).
    pub fn read_registering(
        &self,
        key: &[u8],
        reader: TxnId,
        snapshot_ts: Timestamp,
    ) -> (VisibleRead, Siread) {
        let rows = self.shard(key).rows.read();
        let Some(chain) = rows.get(key) else {
            return (VisibleRead::default(), Siread::NoChain);
        };
        let (read, fresh) = chain.read_registering(reader, snapshot_ts);
        let siread = if fresh {
            Siread::New(RowHandle {
                chain: chain.clone(),
            })
        } else {
            Siread::Held
        };
        (read, siread)
    }

    /// Registers `reader` as the holder of the key range `(lower, upper)` in
    /// `mode`: the whole predicate lock of a range scan, to be made before
    /// the scan lists its first page (module docs, § Why scans stay
    /// consistent). From then until the handle is released, every
    /// [`Table::install`] of a version of a key in the range reports an
    /// `SiRead` holder in [`Installed::range_readers`], and every install
    /// that links a new key into it reports a `Shared` holder in
    /// [`Installed::blocked_by`]. `None` if `reader` already holds a range
    /// of that mode on this table that covers this one.
    pub fn register_range(
        &self,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
        reader: TxnId,
        mode: RangeMode,
    ) -> Option<RangeHandle> {
        self.ranges.register(lower, upper, reader, mode)
    }

    /// Read-committed read of the latest committed version or `reader`'s own
    /// write: the value, whether it is its own and, if not, the commit ts.
    pub fn read_latest(&self, key: &[u8], reader: TxnId) -> VisibleRead {
        let rows = self.shard(key).rows.read();
        rows.get(key)
            .map_or_else(VisibleRead::default, |chain| chain.read_latest(reader))
    }

    /// True if the key has any non-aborted version (committed or not,
    /// tombstone or not): whether a write of it is an insert.
    #[cfg(test)]
    pub(crate) fn contains_key(&self, key: &[u8]) -> bool {
        self.write_probe(key).has_live_version
    }

    /// Both answers a writer needs before installing, from one visit of the
    /// key's shard and chain: the newest commit timestamp (first-committer-
    /// wins) and whether the key exists at all (insert or update).
    pub fn write_probe(&self, key: &[u8]) -> WriteProbe {
        let rows = self.shard(key).rows.read();
        rows.get(key).map_or(WriteProbe::default(), |chain| {
            write_probe(&chain.state.lock().versions)
        })
    }

    /// [`Table::write_probe`] for a locking read (`get_for_update`): the
    /// same chain visit also reports the row's SIREAD holders other than
    /// `writer`, who holds the key's EXCLUSIVE lock, and drops `writer`'s own
    /// registration.
    pub fn probe_for_update(&self, key: &[u8], writer: TxnId) -> ForUpdateProbe {
        let rows = self.shard(key).rows.read();
        let Some(chain) = rows.get(key) else {
            return ForUpdateProbe::default();
        };
        let mut state = chain.state.lock();
        let probe = write_probe(&state.versions);
        let (readers, upgraded) = state.readers.report_to(writer);
        ForUpdateProbe {
            probe,
            readers,
            upgraded,
        }
    }

    /// Installs a new uncommitted version of `key` (a value or, when `value`
    /// is `None`, a deletion tombstone) created by `creator`, and returns a
    /// handle the caller keeps in its write set for later commit stamping or
    /// rollback. [`Table::install`] with a copied payload, the creator's
    /// SIREAD upgraded away and a horizon of zero, at which nothing is
    /// reclaimable — for loads, recovery and tests.
    pub fn install_version(
        &self,
        key: &[u8],
        creator: TxnId,
        value: Option<Vec<u8>>,
    ) -> Arc<Version> {
        self.install(key, creator, value.map(Bytes::from), || TS_ZERO)
            .version
    }

    /// Installs a new uncommitted version of `key` holding `value` (shared,
    /// not copied; `None` is a deletion tombstone) on behalf of `creator`,
    /// who must hold the key's EXCLUSIVE lock.
    ///
    /// Updates of existing keys take the shard **read** lock plus the chain
    /// mutex, so concurrent writers of different keys never contend; only
    /// the first write of a brand-new key takes the shard and ordered-index
    /// write locks. Installing is a push, whatever the chain holds.
    ///
    /// **The readers.** The critical section that makes the version
    /// reachable also reports whose SIREAD covers it: the row's registered
    /// readers ([`Installed::readers`]; the creator's own registration is
    /// dropped there too, [`Installed::upgraded`]) and the
    /// holders of every live SIREAD range that contains the key
    /// ([`Installed::range_readers`]). A Serializable-SI reader either
    /// registered before that critical section and is reported, or reads
    /// after it and finds the version. A link of a new key or index entry
    /// reports the `Shared` ranges that contain it as well
    /// ([`Installed::blocked_by`]); the caller then undoes the install. A
    /// push onto a chain that holds no version is a link of the key.
    ///
    /// **Writer-side pruning.** A writer that finds more than
    /// `PRUNE_ABOVE` (four) versions calls `horizon` — once, under the chain
    /// mutex, so it must not block — and drops what [`Table::purge_shard`]
    /// would drop at that horizon: everything older than the newest version
    /// committed at or below it. The same safety contract applies (see
    /// [`Table::purge_old_versions`]); a horizon that is stale, or zero,
    /// only reclaims less. A load, or an update of a row that holds one
    /// version, never calls `horizon`.
    pub fn install(
        &self,
        key: &[u8],
        creator: TxnId,
        value: Option<Bytes>,
        horizon: impl FnOnce() -> Timestamp,
    ) -> Installed {
        let version = Arc::new(Version::new(creator, value));
        let shard = self.shard(key);

        // Fast path: the key exists; push under the shard read lock. The
        // read lock excludes removal (which needs the write lock), so the
        // chain cannot be unlinked while we push. Index references are
        // added and released inside the same shard critical section, so an
        // index backfill (all shard *write* locks) observes either a version
        // and its references or neither.
        {
            let rows = shard.rows.read();
            if let Some(chain) = rows.get(key) {
                return self.push_pruning(key, chain, version, horizon);
            }
        }

        // Slow path: first version of this key. Re-check under the shard
        // write lock, then publish the chain in both maps.
        let mut rows = shard.rows.write();
        if let Some(chain) = rows.get(key) {
            return self.push_pruning(key, chain, version, horizon);
        }
        let key_arc: Arc<[u8]> = Arc::from(key);
        let chain = RowChain::with_version(version.clone());
        let (mut range_readers, mut blocked_by) = (RowReaders::new(), RowReaders::new());
        {
            // One critical section links the key and looks for the scans it
            // is a phantom of: a scan that lists the index after this has
            // the key on its page, one that listed it before had registered
            // before that (module docs, § Why scans stay consistent).
            let mut ordered = self.ordered.write();
            ordered.insert(key_arc.clone(), chain.clone());
            let blockers = Some(&mut blocked_by);
            self.ranges
                .report_to(key, creator, &mut range_readers, blockers);
        }
        rows.insert(key_arc, chain);
        self.add_index_refs(key, &version, &mut range_readers, &mut blocked_by);
        Installed {
            version,
            pruned: 0,
            readers: RowReaders::new(),
            range_readers,
            blocked_by,
            upgraded: false,
        }
    }

    /// Pushes `version` onto an existing chain, first pruning the chain if
    /// it is over the bound, and collects its readers. The caller holds the
    /// key's shard lock (read or write).
    fn push_pruning(
        &self,
        key: &[u8],
        chain: &RowChain,
        version: Arc<Version>,
        horizon: impl FnOnce() -> Timestamp,
    ) -> Installed {
        let mut state = chain.state.lock();
        debug_assert!(
            order_holds(&state.versions, version.creator(), 2 * PRUNE_ABOVE),
            "chain order broken under {:?}: {:?}",
            version.creator(),
            &state.versions[..]
        );
        let pruned = if state.versions.len() > PRUNE_ABOVE {
            self.drop_reclaimable(key, &mut state.versions, horizon())
        } else {
            0
        };
        let creator = version.creator();
        let (readers, upgraded) = state.readers.report_to(creator);
        let links = !write_probe(&state.versions).has_live_version;
        state.versions.push(version.clone());
        // Pushed first, ranges second, under the one hold of the chain
        // mutex that every reader of the row takes too. A push onto a chain
        // that held no version links the key: no `Shared` scan locked it.
        let (mut range_readers, mut blocked_by) = (RowReaders::new(), RowReaders::new());
        let blockers = links.then_some(&mut blocked_by);
        self.ranges
            .report_to(key, creator, &mut range_readers, blockers);
        drop(state);
        self.add_index_refs(key, &version, &mut range_readers, &mut blocked_by);
        Installed {
            version,
            pruned,
            readers,
            range_readers,
            blocked_by,
            upgraded,
        }
    }

    /// Drops the versions of a chain that no snapshot at or above `horizon`
    /// can read (see [`reclaimable_prefix`]), releasing their index entry
    /// references. The one rule by which history leaves a chain, shared by
    /// the purge pass and by writers; the caller holds the key's shard lock
    /// and the chain mutex.
    fn drop_reclaimable(
        &self,
        key: &[u8],
        versions: &mut Vec<Arc<Version>>,
        horizon: Timestamp,
    ) -> usize {
        let reclaimable = reclaimable_prefix(versions, horizon);
        for v in versions.drain(..reclaimable) {
            self.release_index_refs(key, &v);
        }
        reclaimable
    }

    /// Adds one entry reference per registered index for a freshly
    /// installed version, and appends to `range_readers` and `blocked_by`
    /// the holders of the index ranges that contain an entry it added (see
    /// [`Index::add_ref_reporting`]). Must be called while the caller still
    /// holds the version's shard lock (read or write) — see the module docs.
    fn add_index_refs(
        &self,
        key: &[u8],
        version: &Version,
        range_readers: &mut RowReaders,
        blocked_by: &mut RowReaders,
    ) {
        let Some(value) = version.value() else { return };
        for index in self.indexes.read().iter() {
            if let Some(entry) = index.entry_of(key, value) {
                index.add_ref_reporting(&entry, version.creator(), range_readers, blocked_by);
            }
        }
    }

    /// Releases one entry reference per registered index for a version that
    /// was just removed from its chain. Same locking contract as
    /// [`Table::add_index_refs`].
    fn release_index_refs(&self, key: &[u8], version: &Version) {
        let Some(value) = version.value() else { return };
        for index in self.indexes.read().iter() {
            if let Some(entry) = index.entry_of(key, value) {
                index.release_ref(&entry);
            }
        }
    }

    /// Registers a secondary index on this table, backfilling one entry
    /// reference per resident version. Takes **every** shard write lock
    /// for the duration (install/unlink/purge all hold at least a shard
    /// read lock around their membership change plus index hook), so the
    /// backfill and the registration are one atomic step: versions
    /// installed before it are counted exactly once by the backfill,
    /// versions installed after it are counted exactly once by their
    /// install hook.
    pub fn register_index(&self, index: Arc<Index>) {
        let guards: Vec<_> = self.shards.iter().map(|s| s.rows.write()).collect();
        for rows in &guards {
            for (key, chain) in rows.iter() {
                for v in chain.state.lock().versions.iter() {
                    if let Some(value) = v.value() {
                        if let Some(entry) = index.entry_of(key, value) {
                            index.add_ref(&entry);
                        }
                    }
                }
            }
        }
        self.indexes.write().push(index);
        drop(guards);
    }

    /// The registered secondary indexes of this table.
    pub fn indexes(&self) -> Vec<Arc<Index>> {
        self.indexes.read().clone()
    }

    /// Unlinks a version previously installed with [`Table::install`]
    /// (rollback path). The version should already be marked aborted.
    /// Releases the version's index entry references iff the version was
    /// actually removed here (a purge may have raced and released them
    /// already), inside the shard read-lock scope so index backfills can
    /// never observe a half-applied removal.
    pub fn unlink_version(&self, key: &[u8], version: &Arc<Version>) {
        let shard = self.shard(key);
        let now_empty = {
            let rows = shard.rows.read();
            let Some(chain) = rows.get(key) else { return };
            let (removed, empty) = {
                // An unsettled version sits at the newest end of its chain.
                let mut state = chain.state.lock();
                let found = state.versions.iter().rposition(|v| Arc::ptr_eq(v, version));
                if let Some(at) = found {
                    state.versions.remove(at);
                }
                (found.is_some(), state.is_unused())
            };
            if removed {
                self.release_index_refs(key, version);
            }
            empty
        };
        if now_empty {
            self.remove_if_unused(key);
        }
    }

    /// Removes `key`'s chain from both maps if it (still) holds no version
    /// and no reader; a chain some transaction is registered on stays mapped,
    /// so that the key's next writer finds the registration. Takes the shard
    /// write lock first, which excludes concurrent installs and registering
    /// reads by key, so the check is stable.
    fn remove_if_unused(&self, key: &[u8]) {
        let shard = self.shard(key);
        let removed = {
            let mut rows = shard.rows.write();
            match rows.get(key) {
                Some(chain) if chain.state.lock().is_unused() => {
                    let chain = chain.clone();
                    rows.remove(key);
                    Some(chain)
                }
                _ => None,
            }
        };
        if let Some(chain) = removed {
            self.unlink_from_ordered(key, &chain);
        }
    }

    /// Removes `key` from the ordered index iff it still maps to `chain`.
    /// Called after the chain was removed from its hash shard, and never
    /// while a chain mutex is held (see the module docs on lock order).
    /// `ptr_eq` guards against removing a successor chain installed for
    /// the same key in the meantime.
    fn unlink_from_ordered(&self, key: &[u8], chain: &Arc<RowChain>) {
        let mut ordered = self.ordered.write();
        if ordered
            .get(key)
            .is_some_and(|current| Arc::ptr_eq(current, chain))
        {
            ordered.remove(key);
        }
    }

    /// Snapshot range scan. Returns one [`ScanEntry`] per key in the range
    /// that has any non-aborted version, *including* keys whose visible
    /// version is a tombstone or that have no visible version at all —
    /// Serializable SI needs those entries to register rw-conflicts with the
    /// concurrent writers that created the newer versions.
    ///
    /// Entries come back in key order. Runs over the paging cursor
    /// ([`Table::cursor`]), so the ordered-index lock is taken once per
    /// [`SCAN_PAGE_SIZE`]-key page and never held while rows are read.
    pub fn scan(
        &self,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
        reader: TxnId,
        snapshot_ts: Timestamp,
    ) -> Vec<ScanEntry> {
        self.cursor(lower, upper)
            .entries(reader, snapshot_ts)
            .collect()
    }

    /// Copies out up to `limit` rows of the range under one ordered-index
    /// read lock.
    fn page(&self, lower: Bound<&[u8]>, upper: Bound<&[u8]>, limit: usize) -> ScanPage {
        let ordered = self.ordered.read();
        let rows: Vec<ScanRow> = ordered
            .range::<[u8], _>((lower, upper))
            .take(limit)
            .map(|(key, chain)| ScanRow {
                key: key.clone(),
                handle: RowHandle {
                    chain: chain.clone(),
                },
            })
            .collect();
        // A short page proves the range was exhausted; a full one may be
        // followed by more keys.
        ScanPage {
            last: rows.len() < limit,
            rows,
        }
    }

    /// Paging cursor over a key range: [`ScanCursor::next_page`] hands out
    /// [`SCAN_PAGE_SIZE`] keys and chain handles at a time without reading
    /// them, so the caller decides what happens between seeing a key and
    /// reading it (S2PL takes the page's SHARED locks there; see the module
    /// docs). Only one page of handles is ever materialized, and
    /// concurrent inserts of new keys proceed between pages.
    pub fn cursor<'a>(&'a self, lower: Bound<&'a [u8]>, upper: Bound<&'a [u8]>) -> ScanCursor<'a> {
        ScanCursor {
            table: self,
            lower,
            upper,
            resume_after: None,
            exhausted: false,
            page_size: SCAN_PAGE_SIZE,
        }
    }

    /// Snapshot read of one scanned row through its chain handle: one chain
    /// lock, one traversal, no shard lookup. A chain that is found without
    /// live versions was rolled back or purged since the page was taken
    /// and may have been replaced by a new chain for the same key, so that
    /// (rare) case re-resolves the key through its hash shard.
    pub fn read_row(&self, row: &ScanRow, reader: TxnId, snapshot_ts: Timestamp) -> VisibleRead {
        let read = row.handle.chain.read_all(reader, snapshot_ts);
        if read.key_exists {
            read
        } else {
            self.read(&row.key, reader, snapshot_ts)
        }
    }

    /// Smallest key `>= key` present in the table: where the next-key oracle
    /// of the SIREAD model test puts a gap lock.
    #[cfg(test)]
    fn next_key_at_or_after(&self, key: &[u8]) -> Option<Arc<[u8]>> {
        self.keys_in_range(Bound::Included(key), Bound::Unbounded)
            .into_iter()
            .next()
    }

    /// Smallest key strictly greater than `key`.
    #[cfg(test)]
    fn next_key_after(&self, key: &[u8]) -> Option<Arc<[u8]>> {
        self.keys_in_range(Bound::Excluded(key), Bound::Unbounded)
            .into_iter()
            .next()
    }

    /// All keys in the given range, sharing the index's key bytes.
    #[cfg(test)]
    fn keys_in_range(&self, lower: Bound<&[u8]>, upper: Bound<&[u8]>) -> Vec<Arc<[u8]>> {
        let ordered = self.ordered.read();
        ordered
            .range::<[u8], _>((lower, upper))
            .map(|(k, _)| k.clone())
            .collect()
    }

    /// Garbage-collects versions that can no longer be seen by any snapshot
    /// at or after `horizon`: for each key the newest version committed at
    /// or before the horizon is kept, everything older is dropped, and fully
    /// dead keys (only an old tombstone left) are removed.
    ///
    /// The horizon must be a *safe* reclamation horizon — at or below every
    /// active snapshot, every snapshot that can still be acquired, and every
    /// pinned timestamp (a checkpoint streaming a fuzzy snapshot, a long
    /// scan). Computing such a horizon is `ssi-core`'s job
    /// (`TransactionManager::gc_horizon`); this method trusts its argument.
    /// Returns what was reclaimed.
    pub fn purge_old_versions(&self, horizon: Timestamp) -> PurgeStats {
        let mut stats = PurgeStats::at(horizon);
        for idx in 0..SHARD_COUNT {
            stats.merge(&self.purge_shard(idx, horizon));
        }
        stats
    }

    /// Garbage-collects one hash shard at the given reclamation horizon —
    /// the unit purge passes are built from, so a committer's slice of
    /// shards never sweeps the whole table. Purging every shard
    /// at one pinned horizon reclaims exactly what
    /// [`Table::purge_old_versions`] at that horizon would: the shards
    /// partition the key space, and dead-key removal stays inside the shard
    /// the key hashes to. The same safety contract on `horizon` applies.
    /// `idx` is taken modulo [`SHARD_COUNT`], so cursors can wrap freely.
    pub fn purge_shard(&self, idx: usize, horizon: Timestamp) -> PurgeStats {
        let shard = &self.shards[idx & (SHARD_COUNT - 1)];
        let mut stats = PurgeStats::at(horizon);
        let mut dead_keys: Vec<Arc<[u8]>> = Vec::new();
        let mut unused_keys: Vec<Arc<[u8]>> = Vec::new();
        {
            let rows = shard.rows.read();
            for (key, chain) in rows.iter() {
                let mut state = chain.state.lock();
                let ChainState { versions, readers } = &mut *state;
                stats.versions += self.drop_reclaimable(key, versions, horizon) as u64;
                // If the only remaining reachable version is a tombstone
                // and nothing newer exists, the key is gone for good — once
                // no reader is registered on it any more.
                if is_dead_tombstone(versions, horizon) && readers.is_empty() {
                    dead_keys.push(key.clone());
                }
                // Also drop aborted leftovers (releasing their index
                // references: the purge got to them before the creator's
                // rollback unlink, which will then find nothing to remove
                // and release nothing).
                let before = versions.len();
                versions.retain(|v| {
                    if v.state() == VersionState::Aborted {
                        self.release_index_refs(key, v);
                        false
                    } else {
                        true
                    }
                });
                stats.versions += (before - versions.len()) as u64;
                // A chain a rollback emptied while a reader was registered
                // on it, and the reader has gone since.
                if state.is_unused() {
                    unused_keys.push(key.clone());
                }
            }
        }
        for key in dead_keys {
            if self.remove_dead_key(&key, horizon) > 0 {
                stats.versions += 1;
                stats.chains += 1;
            }
        }
        // Not counted: `chains` is keys reclaimed with their last version.
        for key in unused_keys {
            self.remove_if_unused(&key);
        }
        stats
    }

    /// Removes a key whose chain consists solely of one committed tombstone
    /// at or before the horizon and has no registered reader. Re-verified
    /// under the shard write lock, so a version installed or a reader
    /// registered since the purge scan keeps the key mapped.
    fn remove_dead_key(&self, key: &[u8], horizon: Timestamp) -> usize {
        let shard = self.shard(key);
        let removed = {
            let mut rows = shard.rows.write();
            let Some(chain) = rows.get(key) else { return 0 };
            let dead = {
                let mut state = chain.state.lock();
                let is_dead =
                    is_dead_tombstone(&state.versions, horizon) && state.readers.is_empty();
                if is_dead {
                    // Empty the chain so scans holding the Arc skip it.
                    state.versions.clear();
                }
                is_dead
            };
            if !dead {
                return 0;
            }
            let chain = chain.clone();
            rows.remove(key);
            chain
        };
        self.unlink_from_ordered(key, &removed);
        1
    }

    /// Total number of versions stored (all chains), for tests and stats.
    pub fn version_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.rows
                    .read()
                    .values()
                    .map(|c| c.state.lock().versions.len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// Total number of SIREAD holders on the table — (reader, chain) pairs,
    /// plus the range registrations on the table and on its secondary
    /// indexes — for tests and leak checks: 0 once every Serializable SI
    /// transaction has finished and been cleaned up.
    pub fn siread_holder_count(&self) -> usize {
        let holders = |chain: &Arc<RowChain>| chain.state.lock().readers.iter().count();
        let mapped = self.shards.iter().map(|s| {
            let rows = s.rows.read();
            rows.values().map(holders).sum::<usize>()
        });
        let indexes = self.indexes.read();
        let index_ranges = indexes.iter().map(|index| index.range_count());
        mapped.sum::<usize>() + self.ranges.len() + index_ranges.sum::<usize>()
    }
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("keys", &self.key_count())
            .finish()
    }
}

#[cfg(test)]
#[path = "table_model_tests.rs"]
mod model_tests;

#[cfg(test)]
#[path = "siread_model_tests.rs"]
mod siread_model_tests;

#[cfg(test)]
mod tests {
    use super::*;

    fn t(id: u64) -> TxnId {
        TxnId(id)
    }

    fn table() -> Table {
        Table::new(TableId(1), "test")
    }

    fn val(r: &VisibleRead) -> Option<Vec<u8>> {
        r.value.as_deref().map(|b| b.to_vec())
    }

    #[test]
    fn empty_read() {
        let tbl = table();
        let r = tbl.read(b"a", t(1), 10);
        assert!(r.value.is_none());
        assert!(!r.key_exists);
        assert!(r.newer_creators.is_empty());
        assert_eq!(tbl.write_probe(b"a"), WriteProbe::default());
    }

    #[test]
    fn own_uncommitted_write_is_visible_to_creator_only() {
        let tbl = table();
        tbl.install_version(b"a", t(1), Some(vec![1]));
        let mine = tbl.read(b"a", t(1), 5);
        assert_eq!(val(&mine), Some(vec![1]));
        let theirs = tbl.read(b"a", t(2), 5);
        assert_eq!(theirs.value, None);
        assert_eq!(theirs.newer_creators, vec![t(1)]);
        assert!(theirs.key_exists);
    }

    #[test]
    fn committed_version_respects_snapshot() {
        let tbl = table();
        let v = tbl.install_version(b"a", t(1), Some(vec![1]));
        v.mark_committed(10);
        assert_eq!(val(&tbl.read(b"a", t(2), 10)), Some(vec![1]));
        assert_eq!(tbl.read(b"a", t(2), 9).value, None);
        assert_eq!(tbl.read(b"a", t(2), 9).newer_creators, vec![t(1)]);
        assert_eq!(tbl.write_probe(b"a").newest_committed_ts, Some(10));
    }

    #[test]
    fn unstamped_version_is_skipped_until_its_commit_settles() {
        let tbl = table();
        let v1 = tbl.install_version(b"a", t(1), Some(vec![1]));
        v1.mark_committed(10);
        // t2 is committing at timestamp 20 but has not stamped yet: a
        // snapshot that already covers 20 reads the committed version
        // beneath and reports t2 as the creator of a newer version.
        let v2 = tbl.install_version(b"a", t(2), Some(vec![2]));
        let r = tbl.read(b"a", t(3), 25);
        assert_eq!(val(&r), Some(vec![1]));
        assert_eq!(r.read_version_ts, Some(10));
        assert_eq!(r.newer_creators, vec![t(2)]);
        assert_eq!(tbl.write_probe(b"a").newest_committed_ts, Some(10));
        // The one stamp settles it for every later read.
        v2.mark_committed(20);
        let r = tbl.read(b"a", t(3), 25);
        assert_eq!(val(&r), Some(vec![2]));
        assert_eq!(r.read_version_ts, Some(20));
        assert!(r.newer_creators.is_empty());
        assert_eq!(tbl.write_probe(b"a").newest_committed_ts, Some(20));
    }

    #[test]
    fn snapshot_reads_older_version_and_reports_newer_creator() {
        let tbl = table();
        let v1 = tbl.install_version(b"a", t(1), Some(vec![1]));
        v1.mark_committed(10);
        let v2 = tbl.install_version(b"a", t(2), Some(vec![2]));
        v2.mark_committed(20);
        // A reader with snapshot 15 sees version 1 and learns that T2 wrote a
        // newer version — exactly the rw-dependency signal of Fig. 3.4.
        let r = tbl.read(b"a", t(3), 15);
        assert_eq!(val(&r), Some(vec![1]));
        assert_eq!(r.newer_creators, vec![t(2)]);
        // A reader with snapshot 25 sees version 2 with no newer versions.
        let r2 = tbl.read(b"a", t(3), 25);
        assert_eq!(val(&r2), Some(vec![2]));
        assert!(r2.newer_creators.is_empty());
    }

    #[test]
    fn tombstone_hides_row_from_new_snapshots() {
        let tbl = table();
        let v1 = tbl.install_version(b"a", t(1), Some(vec![1]));
        v1.mark_committed(10);
        let del = tbl.install_version(b"a", t(2), None);
        del.mark_committed(20);
        assert_eq!(val(&tbl.read(b"a", t(3), 15)), Some(vec![1]));
        assert_eq!(tbl.read(b"a", t(3), 25).value, None);
        // The key still exists (with a tombstone) so scans can detect the
        // conflict for old snapshots.
        assert!(tbl.read(b"a", t(3), 25).key_exists);
    }

    #[test]
    fn abort_unlinks_version() {
        let tbl = table();
        let v = tbl.install_version(b"a", t(1), Some(vec![1]));
        v.mark_aborted();
        tbl.unlink_version(b"a", &v);
        let r = tbl.read(b"a", t(1), 100);
        assert!(r.value.is_none());
        assert!(!r.key_exists);
        assert_eq!(tbl.key_count(), 0);
    }

    #[test]
    fn read_latest_committed_ignores_snapshot() {
        let tbl = table();
        let v1 = tbl.install_version(b"a", t(1), Some(vec![1]));
        v1.mark_committed(10);
        let v2 = tbl.install_version(b"a", t(2), Some(vec![2]));
        v2.mark_committed(20);
        assert_eq!(tbl.read_latest(b"a", t(9)).value.as_deref(), Some(&[2][..]));
        // Own uncommitted write wins.
        tbl.install_version(b"a", t(9), Some(vec![9]));
        assert_eq!(tbl.read_latest(b"a", t(9)).value.as_deref(), Some(&[9][..]));
    }

    #[test]
    fn scan_returns_rows_in_key_order_with_conflict_info() {
        let tbl = table();
        for (k, ts) in [(b"a", 10u64), (b"c", 10), (b"e", 10)] {
            let v = tbl.install_version(k, t(1), Some(k.to_vec()));
            v.mark_committed(ts);
        }
        // A concurrent insert not visible to snapshot 10.
        let v = tbl.install_version(b"b", t(5), Some(vec![0xb]));
        v.mark_committed(20);

        let entries = tbl.scan(Bound::Unbounded, Bound::Unbounded, t(3), 10);
        let keys: Vec<&[u8]> = entries.iter().map(|e| &e.key[..]).collect();
        assert_eq!(keys, vec![b"a" as &[u8], b"b", b"c", b"e"]);
        // "b" has no visible value but reports its creator as a conflict.
        let b_entry = &entries[1];
        assert!(b_entry.value.is_none());
        assert_eq!(b_entry.newer_creators, vec![t(5)]);
    }

    #[test]
    fn scan_bounds_are_respected() {
        let tbl = table();
        for k in [b"a", b"b", b"c", b"d"] {
            let v = tbl.install_version(k, t(1), Some(vec![1]));
            v.mark_committed(5);
        }
        let entries = tbl.scan(
            Bound::Included(b"b".as_slice()),
            Bound::Excluded(b"d".as_slice()),
            t(2),
            10,
        );
        let keys: Vec<&[u8]> = entries.iter().map(|e| &e.key[..]).collect();
        assert_eq!(keys, vec![b"b" as &[u8], b"c"]);
    }

    #[test]
    fn next_key_queries() {
        let tbl = table();
        for k in [b"b", b"d", b"f"] {
            let v = tbl.install_version(k, t(1), Some(vec![1]));
            v.mark_committed(5);
        }
        assert_eq!(tbl.next_key_at_or_after(b"d").as_deref(), Some(&b"d"[..]));
        assert_eq!(tbl.next_key_after(b"d").as_deref(), Some(&b"f"[..]));
        assert_eq!(tbl.next_key_at_or_after(b"c").as_deref(), Some(&b"d"[..]));
        assert_eq!(tbl.next_key_after(b"f"), None);
        assert_eq!(tbl.next_key_at_or_after(b"g"), None);
    }

    #[test]
    fn purge_reclaims_old_versions_and_dead_tombstones() {
        let tbl = table();
        let v1 = tbl.install_version(b"a", t(1), Some(vec![1]));
        v1.mark_committed(10);
        let v2 = tbl.install_version(b"a", t(2), Some(vec![2]));
        v2.mark_committed(20);
        let v3 = tbl.install_version(b"a", t(3), Some(vec![3]));
        v3.mark_committed(30);
        let d = tbl.install_version(b"b", t(4), None);
        d.mark_committed(15);

        // Oldest active snapshot is 25: version 1 is unreachable, the "b"
        // tombstone is dead.
        let stats = tbl.purge_old_versions(25);
        assert!(stats.versions >= 2, "reclaimed {stats:?}");
        assert_eq!(stats.chains, 1, "the dead tombstone chain is removed");
        assert_eq!(stats.horizon, 25);
        assert_eq!(val(&tbl.read(b"a", t(9), 25)), Some(vec![2]));
        assert_eq!(val(&tbl.read(b"a", t(9), 35)), Some(vec![3]));
        assert_eq!(tbl.key_count(), 1);
    }

    #[test]
    fn purge_never_reclaims_versions_at_or_above_the_horizon() {
        // Versions visible to any snapshot >= horizon must survive: the
        // newest version committed at or below the horizon is the one every
        // such snapshot reads for this key.
        let tbl = table();
        for (creator, ts) in [(1u64, 10u64), (2, 20), (3, 30)] {
            let v = tbl.install_version(b"a", t(creator), Some(vec![creator as u8]));
            v.mark_committed(ts);
        }
        let stats = tbl.purge_old_versions(15);
        assert_eq!(
            stats.versions, 0,
            "the ts-10 version is what a snapshot at 15 reads: nothing is reclaimable"
        );
        assert_eq!(val(&tbl.read(b"a", t(9), 15)), Some(vec![1]));
        assert_eq!(val(&tbl.read(b"a", t(9), 25)), Some(vec![2]));
        assert_eq!(val(&tbl.read(b"a", t(9), 35)), Some(vec![3]));
    }

    #[test]
    fn install_prunes_a_long_chain_at_the_callers_horizon() {
        let tbl = table();
        let value = || Some(Bytes::from(vec![7]));
        // Up to the bound nobody asks for the horizon.
        for ts in 1..=PRUNE_ABOVE as u64 {
            let installed = tbl.install(b"a", t(ts), value(), || unreachable!("short chain"));
            assert_eq!(installed.pruned, 0);
            installed.version.mark_committed(10 * ts);
        }
        let installed = tbl.install(b"a", t(5), value(), || unreachable!("at the bound"));
        installed.version.mark_committed(50);
        // Over it: a horizon of 35 keeps the version committed at 30 (what a
        // snapshot at 35 reads) and everything newer, and drops 10 and 20.
        let installed = tbl.install(b"a", t(6), value(), || 35);
        assert_eq!(installed.pruned, 2);
        assert_eq!(tbl.version_count(), 4);
        assert_eq!(tbl.read(b"a", t(9), 35).read_version_ts, Some(30));
        assert_eq!(tbl.read(b"a", t(9), 45).read_version_ts, Some(40));
        // Below the horizon the history is gone, as after a purge pass.
        assert!(tbl.read(b"a", t(9), 25).value.is_none());
        assert_eq!(tbl.write_probe(b"a").newest_committed_ts, Some(50));
    }

    #[test]
    fn per_shard_purge_reclaims_exactly_what_whole_table_purge_would() {
        // Two identical tables: purge one in a single whole-table pass and
        // the other shard by shard (in a scrambled order) at the same
        // pinned horizon — stats and surviving state must agree exactly.
        let build = || {
            let tbl = table();
            for k in 0..200u64 {
                for (creator, ts) in [(1u64, 10u64), (2, 20), (3, 30)] {
                    let v = tbl.install_version(&k.to_be_bytes(), t(creator), Some(vec![k as u8]));
                    v.mark_committed(ts);
                }
            }
            // Dead tombstones sprinkled over the shards.
            for k in 200..232u64 {
                let v = tbl.install_version(&k.to_be_bytes(), t(4), None);
                v.mark_committed(15);
            }
            tbl
        };
        let whole = build();
        let sharded = build();
        let horizon = 25;

        let whole_stats = whole.purge_old_versions(horizon);
        let mut sharded_stats = PurgeStats::at(horizon);
        for i in 0..SHARD_COUNT {
            // Wrapping index exercises the modulo contract too.
            sharded_stats.merge(&sharded.purge_shard(i + SHARD_COUNT, horizon));
        }
        assert_eq!(sharded_stats, whole_stats);
        assert_eq!(sharded.version_count(), whole.version_count());
        assert_eq!(sharded.key_count(), whole.key_count());
        for k in 0..200u64 {
            assert_eq!(
                val(&sharded.read(&k.to_be_bytes(), t(9), 25)),
                val(&whole.read(&k.to_be_bytes(), t(9), 25)),
            );
        }
    }

    #[test]
    fn purge_stats_merge_sums_and_keeps_highest_horizon() {
        let mut a = PurgeStats {
            horizon: 10,
            versions: 3,
            chains: 1,
        };
        a.merge(&PurgeStats {
            horizon: 7,
            versions: 2,
            chains: 0,
        });
        assert_eq!(
            a,
            PurgeStats {
                horizon: 10,
                versions: 5,
                chains: 1
            }
        );
        assert_eq!(PurgeStats::at(4).horizon, 4);
    }

    #[test]
    fn version_count_tracks_installs() {
        let tbl = table();
        assert_eq!(tbl.version_count(), 0);
        tbl.install_version(b"a", t(1), Some(vec![1]));
        tbl.install_version(b"a", t(1), Some(vec![2]));
        tbl.install_version(b"b", t(1), Some(vec![3]));
        assert_eq!(tbl.version_count(), 3);
        assert_eq!(tbl.key_count(), 2);
    }

    #[test]
    fn read_returns_refcounted_handle_not_a_copy() {
        // The zero-copy guarantee of the read path: every read of the same
        // version must return a handle to the same heap allocation, i.e. a
        // refcount bump, never a byte copy.
        let tbl = table();
        let v = tbl.install_version(b"a", t(1), Some(vec![42; 128]));
        v.mark_committed(10);
        let r1 = tbl.read(b"a", t(2), 20).value.expect("visible");
        let r2 = tbl.read(b"a", t(3), 20).value.expect("visible");
        assert!(
            Arc::ptr_eq(&r1, &r2),
            "reads must share the version's payload allocation"
        );
        assert_eq!(
            r1.as_ptr(),
            v.value().unwrap().as_ptr(),
            "handle points into the stored version"
        );
        // Scans hand out the same handle.
        let entries = tbl.scan(Bound::Unbounded, Bound::Unbounded, t(4), 20);
        assert!(Arc::ptr_eq(entries[0].value.as_ref().unwrap(), &r1));
    }

    #[test]
    fn cursor_pages_through_range_and_marks_the_last_page() {
        let tbl = table();
        for i in 0..8u64 {
            let v = tbl.install_version(&[i as u8], t(1), Some(vec![i as u8]));
            v.mark_committed(5);
        }
        let mut cursor = tbl
            .cursor(Bound::Unbounded, Bound::Unbounded)
            .with_page_size(4);
        let keys = |p: &ScanPage| p.rows.iter().map(|r| r.key[0]).collect::<Vec<u8>>();
        let p1 = cursor.next_page().unwrap();
        assert_eq!((keys(&p1), p1.last), (vec![0, 1, 2, 3], false));
        let p2 = cursor.next_page().unwrap();
        assert_eq!((keys(&p2), p2.last), (vec![4, 5, 6, 7], false));
        // The range ended exactly on a page boundary: one more, empty, page
        // proves exhaustion.
        let p3 = cursor.next_page().unwrap();
        assert!(p3.rows.is_empty() && p3.last);
        assert!(cursor.next_page().is_none());
    }

    #[test]
    fn read_row_follows_a_key_recreated_after_its_chain_died() {
        let tbl = table();
        let gone = tbl.install_version(b"k", t(1), Some(vec![1]));
        let page = tbl
            .cursor(Bound::Unbounded, Bound::Unbounded)
            .next_page()
            .unwrap();
        // The insert rolls back (the handle's chain dies) and another
        // transaction creates the key again before the page's rows are read.
        gone.mark_aborted();
        tbl.unlink_version(b"k", &gone);
        let again = tbl.install_version(b"k", t(2), Some(vec![2]));
        again.mark_committed(10);
        let read = tbl.read_row(&page.rows[0], t(3), 5);
        assert!(read.key_exists, "the new chain must be found");
        assert_eq!(read.newer_creators, vec![t(2)]);
        assert_eq!(val(&tbl.read_row(&page.rows[0], t(3), 10)), Some(vec![2]));
    }

    #[test]
    fn cursor_streams_whole_range_across_page_boundaries() {
        let tbl = table();
        for i in 0..300u64 {
            let v = tbl.install_version(&i.to_be_bytes(), t(1), Some(vec![1]));
            v.mark_committed(5);
        }
        // Tiny pages force many refills; the stream must still be the whole
        // range in order, without duplicates.
        let keys: Vec<Arc<[u8]>> = tbl
            .cursor(Bound::Unbounded, Bound::Unbounded)
            .with_page_size(7)
            .entries(t(2), 10)
            .map(|e| e.key)
            .collect();
        assert_eq!(keys.len(), 300);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        // And scan() (built on the cursor) agrees with explicit bounds.
        let bounded = tbl.scan(
            Bound::Included(&100u64.to_be_bytes()[..]),
            Bound::Excluded(&200u64.to_be_bytes()[..]),
            t(2),
            10,
        );
        assert_eq!(bounded.len(), 100);
        assert_eq!(bounded[0].key[..], 100u64.to_be_bytes());
    }

    #[test]
    fn cursor_skips_rolled_back_keys_and_keeps_paging() {
        // The first ten keys are rolled back before the scan; the cursor
        // must stream exactly the surviving keys, refilling across several
        // small pages.
        let tbl = table();
        for i in 0..20u64 {
            let v = tbl.install_version(&[i as u8], t(1), Some(vec![1]));
            if i < 10 {
                v.mark_aborted();
                tbl.unlink_version(&[i as u8], &v);
            } else {
                v.mark_committed(5);
            }
        }
        let keys: Vec<Arc<[u8]>> = tbl
            .cursor(Bound::Unbounded, Bound::Unbounded)
            .with_page_size(3)
            .entries(t(2), 10)
            .map(|e| e.key)
            .collect();
        assert_eq!(keys.len(), 10);
        assert_eq!(keys[0][..], [10u8]);
    }

    #[test]
    fn index_refs_follow_chain_membership() {
        use crate::index::{Index, IndexDef, IndexKeyPart, IndexKeySpec};
        let tbl = table();
        let idx = Arc::new(Index::new(IndexDef {
            id: TableId(9),
            name: "by_prefix".into(),
            table: tbl.id(),
            unique: false,
            spec: IndexKeySpec {
                layout: vec![],
                parts: vec![IndexKeyPart::PrimaryKeySlice(0, 1)],
            },
        }));
        // Backfill covers versions installed before registration.
        let v0 = tbl.install_version(b"a1", t(1), Some(vec![0]));
        v0.mark_committed(10);
        tbl.register_index(idx.clone());
        assert_eq!(idx.entry_count(), 1);
        // New installs add entries; aborted unlinks remove them.
        let v1 = tbl.install_version(b"b1", t(2), Some(vec![0]));
        assert_eq!(idx.entry_count(), 2);
        v1.mark_aborted();
        tbl.unlink_version(b"b1", &v1);
        assert_eq!(idx.entry_count(), 1);
        // An update of the same key extracts to the same entry: two refs,
        // one entry; GC of the superseded version releases one ref only.
        let v2 = tbl.install_version(b"a1", t(3), Some(vec![1]));
        v2.mark_committed(20);
        assert_eq!(idx.entry_count(), 1);
        tbl.purge_old_versions(25);
        assert_eq!(idx.entry_count(), 1, "resident version still claims it");
        // Tombstone + purge reclaim the chain and the last reference.
        let d = tbl.install_version(b"a1", t(4), None);
        d.mark_committed(30);
        tbl.purge_old_versions(35);
        assert_eq!(idx.entry_count(), 0, "dead chain leaves no entries");
        assert_eq!(tbl.key_count(), 0);
    }

    #[test]
    fn reader_set_keeps_two_inline_and_spills_the_rest() {
        assert!(std::mem::size_of::<ReaderSet>() <= 24);
        // What the table pays per key, counting the two words of its `Arc`:
        // the 72-byte chain `rss_peak_mb` rides on. A range scan adds nothing
        // to it.
        assert_eq!(std::mem::size_of::<RowChain>() + 16, 72);
        let mut set = ReaderSet::default();
        assert!(set.is_empty());
        for id in 1..=5 {
            assert!(set.insert(t(id)));
            assert!(!set.insert(t(id)), "already a holder");
        }
        assert!(set.spill.as_ref().is_some_and(|spill| spill.len() == 3));
        let mut held: Vec<TxnId> = set.iter().collect();
        held.sort();
        assert_eq!(held, (1..=5).map(t).collect::<Vec<_>>());
        // A freed inline slot is reused before the spill grows.
        assert!(set.remove(t(1)));
        assert!(!set.remove(t(1)));
        assert!(set.insert(t(6)));
        assert_eq!(set.inline, [t(6), t(2)]);
        // The writer is left out of its own report, and dropped: once.
        let (readers, upgraded) = set.report_to(t(2));
        assert_eq!((readers.len(), upgraded), (4, true));
        let (readers, upgraded) = set.report_to(t(2));
        assert_eq!((readers.len(), upgraded), (4, false));
        // The spill goes when its last holder does.
        for id in 3..=5 {
            assert!(set.remove(t(id)));
        }
        assert!(set.spill.is_none());
        assert!(set.remove(t(6)));
        assert!(set.is_empty());
    }

    #[test]
    fn registering_read_and_install_find_each_other() {
        let tbl = table();
        assert!(matches!(
            tbl.read_registering(b"a", t(9), 20).1,
            Siread::NoChain
        ));
        tbl.install_version(b"a", t(1), Some(vec![1]))
            .mark_committed(10);
        // The reader registers, once; a second read holds what it has.
        let (read, first) = tbl.read_registering(b"a", t(2), 20);
        assert_eq!(val(&read), Some(vec![1]));
        let Siread::New(handle) = first else {
            panic!("first read of the row registers");
        };
        assert!(matches!(
            tbl.read_registering(b"a", t(2), 20).1,
            Siread::Held
        ));
        assert_eq!(tbl.siread_holder_count(), 1);
        // A writer is handed the reader with its install, and a read after
        // the install sees the writer's version.
        let installed = tbl.install(b"a", t(3), Some(vec![3].into()), || TS_ZERO);
        assert_eq!(installed.readers, vec![t(2)]);
        assert!(!installed.upgraded, "the writer had not read the row");
        let (read, _) = tbl.read_registering(b"a", t(4), 20);
        assert_eq!(read.newer_creators, vec![t(3)]);
        // The writer's own read of its write registers nothing.
        let (own, siread) = tbl.read_registering(b"a", t(3), 20);
        assert!(own.read_own_write && matches!(siread, Siread::Held));
        // A reader that writes is upgraded away, once.
        installed.version.mark_committed(30);
        let first = tbl.install(b"a", t(4), Some(vec![4].into()), || TS_ZERO);
        assert_eq!((first.readers.to_vec(), first.upgraded), (vec![t(2)], true));
        assert_eq!(tbl.siread_holder_count(), 1);
        let again = tbl.install(b"a", t(4), Some(vec![5].into()), || TS_ZERO);
        assert!(
            !again.upgraded,
            "its registration went with its first write"
        );
        // The locking read reports and upgrades like the install.
        let probe = tbl.probe_for_update(b"a", t(2));
        assert_eq!(probe.probe.newest_committed_ts, Some(30));
        assert!(probe.readers.is_empty() && probe.upgraded);
        assert!(!handle.release_siread(t(2)), "upgraded away already");
        assert_eq!(tbl.siread_holder_count(), 0);
    }

    #[test]
    fn a_chain_with_readers_stays_mapped_through_rollback_and_purge() {
        let tbl = table();
        // A reader registers under an uncommitted insert, which rolls back:
        // the chain holds no version but stays where the next insert of the
        // key will find the reader.
        let ins = tbl.install_version(b"k", t(1), Some(vec![1]));
        let (read, siread) = tbl.read_registering(b"k", t(2), 5);
        assert_eq!(read.newer_creators, vec![t(1)]);
        let Siread::New(handle) = siread else {
            panic!("registers under the insert");
        };
        ins.mark_aborted();
        tbl.unlink_version(b"k", &ins);
        assert_eq!((tbl.key_count(), tbl.version_count()), (1, 0));
        tbl.purge_old_versions(100);
        assert_eq!(tbl.key_count(), 1, "a pass leaves it too");
        let again = tbl.install(b"k", t(3), Some(vec![3].into()), || TS_ZERO);
        assert_eq!(again.readers, vec![t(2)]);
        // Same for a tombstone a pass would otherwise take the key with.
        again.version.mark_committed(10);
        tbl.install_version(b"k", t(4), None).mark_committed(20);
        let stats = tbl.purge_old_versions(30);
        assert_eq!((stats.versions, stats.chains), (1, 0));
        assert_eq!(tbl.key_count(), 1);
        let reinsert = tbl.install(b"k", t(5), Some(vec![5].into()), || TS_ZERO);
        assert_eq!(reinsert.readers, vec![t(2)]);
        // Once the reader is gone the next pass unmaps a chain left unused…
        reinsert.version.mark_aborted();
        tbl.unlink_version(b"k", &reinsert.version);
        assert!(handle.release_siread(t(2)));
        assert_eq!(tbl.purge_old_versions(30).chains, 1, "the dead tombstone");
        assert_eq!(tbl.key_count(), 0);
        // …including one a rollback had to leave behind.
        let ins = tbl.install_version(b"j", t(6), Some(vec![6]));
        let Siread::New(handle) = tbl.read_registering(b"j", t(7), 5).1 else {
            panic!("registers under the insert");
        };
        ins.mark_aborted();
        tbl.unlink_version(b"j", &ins);
        assert!(handle.release_siread(t(7)));
        assert_eq!(tbl.key_count(), 1);
        assert_eq!(tbl.purge_old_versions(30), PurgeStats::at(30));
        assert_eq!(tbl.key_count(), 0);
    }

    #[test]
    fn a_range_is_reported_to_every_install_of_a_key_it_contains() {
        let tbl = table();
        for k in [b"b", b"d", b"h"] {
            tbl.install_version(k, t(1), Some(vec![1]))
                .mark_committed(10);
        }
        // Installs and commits, one writer after the other.
        let clock = std::cell::Cell::new(10);
        let write = |key: &[u8], creator: u64, value: Option<Vec<u8>>| {
            let value = value.map(Bytes::from);
            let installed = tbl.install(key, t(creator), value, || TS_ZERO);
            clock.set(clock.get() + 1);
            installed.version.mark_committed(clock.get());
            installed.range_readers
        };
        assert!(write(b"d", 9, Some(vec![9])).is_empty());
        // [b, f): one registration, whatever lies between the bounds.
        let (lower, upper) = (Bound::Included(&b"b"[..]), Bound::Excluded(&b"f"[..]));
        let register = |holder, mode| tbl.register_range(lower, upper, t(holder), mode);
        let scan = register(2, RangeMode::SiRead).expect("registers");
        assert!(register(2, RangeMode::SiRead).is_none(), "held");
        assert_eq!(tbl.siread_holder_count(), 1);
        // An update and a delete of a row in the range, the first version of
        // a new key in it, and a second new key in front of that one: all by
        // containment.
        assert_eq!(write(b"d", 3, Some(vec![3])), vec![t(2)]);
        assert_eq!(write(b"b", 3, None), vec![t(2)]);
        assert_eq!(write(b"e", 3, Some(vec![3])), vec![t(2)]);
        assert_eq!(write(b"c", 4, Some(vec![4])), vec![t(2)]);
        // So is an insert onto a chain that a rollback left mapped for a
        // point reader, who is reported beside the scan.
        let first = tbl.install(b"ee", t(5), Some(vec![5].into()), || TS_ZERO);
        assert_eq!(first.range_readers, vec![t(2)]);
        assert!(matches!(
            tbl.read_registering(b"ee", t(6), 20).1,
            Siread::New(_)
        ));
        first.version.mark_aborted();
        tbl.unlink_version(b"ee", &first.version);
        assert_eq!((tbl.key_count(), tbl.siread_holder_count()), (6, 2));
        let again = tbl.install(b"ee", t(7), Some(vec![7].into()), || TS_ZERO);
        assert_eq!(again.readers, vec![t(6)]);
        assert_eq!(again.range_readers, vec![t(2)]);
        // Outside the bounds nobody is told, however close the neighbours.
        assert!(write(b"f", 3, Some(vec![3])).is_empty());
        assert!(write(b"a", 3, Some(vec![3])).is_empty());
        assert!(write(b"h", 3, Some(vec![3])).is_empty());
        // An S2PL scan of the same range is reported to the link of a key new
        // to the table only, which the writer then undoes as a rollback would.
        let shared = register(8, RangeMode::Shared).expect("a mode of its own");
        let undone = |key: &[u8]| {
            let installed = tbl.install(key, t(3), Some(vec![3].into()), || TS_ZERO);
            installed.version.mark_aborted();
            tbl.unlink_version(key, &installed.version);
            let told = [installed.range_readers, installed.blocked_by];
            told.map(|ids| ids.to_vec())
        };
        assert_eq!(undone(b"d"), [vec![t(2)], vec![]], "an update");
        assert_eq!(undone(b"dd"), [vec![t(2)], vec![t(8)]], "a link");
        assert_eq!(undone(b"g"), [vec![], vec![]], "outside");
        assert_eq!(tbl.key_count(), 8, "nothing of the links is left");
        // Unless a point reader registers between a link and its undo: the
        // chain stays mapped with no version, an S2PL listing of it skips it,
        // and a push onto it links the key all the same.
        let linked = tbl.install(b"de", t(3), Some(vec![3].into()), || TS_ZERO);
        assert_eq!(linked.blocked_by, vec![t(8)]);
        let (_, siread) = tbl.read_registering(b"de", t(6), 20);
        assert!(matches!(siread, Siread::New(_)));
        linked.version.mark_aborted();
        tbl.unlink_version(b"de", &linked.version);
        assert_eq!(tbl.key_count(), 9, "`de` stays mapped for its reader");
        let de = Bound::Included(&b"de"[..]);
        let page = tbl.cursor(de, de).next_page().unwrap();
        assert!(!page.rows[0].handle.holds_version());
        assert_eq!(undone(b"de"), [vec![t(2)], vec![t(8)]], "a push that links");
        assert!(shared.release());
        // The scanner's own writes are not its conflicts, and cost it nothing.
        assert!(write(b"d", 2, Some(vec![2])).is_empty());
        assert!(write(b"bb", 2, Some(vec![2])).is_empty());
        // Released, it is gone from every key at once.
        assert!(scan.release());
        assert!(write(b"cc", 8, Some(vec![8])).is_empty());
        assert_eq!(
            tbl.siread_holder_count(),
            2,
            "the point reader of `ee` and `de`"
        );
    }

    #[test]
    fn a_secondary_index_reports_the_ranges_that_contain_a_new_entry() {
        use crate::index::{
            encode_entry, entry_range, Index, IndexDef, IndexKeyPart, IndexKeySpec,
        };
        let tbl = table();
        let idx = Arc::new(Index::new(IndexDef {
            id: TableId(9),
            name: "by_first_byte_of_value".into(),
            table: tbl.id(),
            unique: false,
            spec: IndexKeySpec {
                layout: vec![crate::index::FieldKind::U32],
                parts: vec![IndexKeyPart::ValueField(0)],
            },
        }));
        tbl.register_index(idx.clone());
        let value = |n: u32| Some(Bytes::from(n.to_le_bytes().to_vec()));
        let clock = std::cell::Cell::new(10);
        let write = |key: &[u8], creator: u64, n: u32| {
            let installed = tbl.install(key, t(creator), value(n), || TS_ZERO);
            clock.set(clock.get() + 1);
            installed.version.mark_committed(clock.get());
            installed.range_readers
        };
        // Index keys 10..=20, in entry space.
        let (lo, hi) = (10u32.to_be_bytes(), 20u32.to_be_bytes());
        let (lower, upper) = entry_range(Bound::Included(&lo), Bound::Included(&hi));
        let (lower, upper) = (as_ref_bound(&lower), as_ref_bound(&upper));
        let scan = idx
            .register_range(lower, upper, t(2), RangeMode::SiRead)
            .expect("registers");
        assert_eq!(tbl.siread_holder_count(), 1);
        // A new row, and a row renamed into the range, claim an entry in it;
        // rows that stay outside, or leave, add none there.
        assert_eq!(write(b"r1", 3, 15), vec![t(2)]);
        assert!(write(b"r2", 3, 25).is_empty());
        assert_eq!(write(b"r2", 3, 20), vec![t(2)]);
        assert!(write(b"r1", 3, 9).is_empty());
        assert!(write(b"r3", 2, 12).is_empty(), "its own");
        assert!(idx
            .entries_in_range(Bound::Unbounded, Bound::Unbounded)
            .contains(&Arc::from(encode_entry(&12u32.to_be_bytes(), b"r3"))));
        // An S2PL index scan is reported to an entry that is new to the index
        // only: `(15, r1)` is still claimed by r1's first version.
        let shared = idx.register_range(lower, upper, t(8), RangeMode::Shared);
        let shared = shared.expect("a mode of its own");
        let blocked_by = |key: &[u8], n| {
            let installed = tbl.install(key, t(4), value(n), || TS_ZERO);
            installed.version.mark_committed(clock.get() + 1);
            clock.set(clock.get() + 1);
            installed.blocked_by.to_vec()
        };
        assert_eq!(blocked_by(b"r5", 16), vec![t(8)], "a fresh entry");
        assert!(blocked_by(b"r1", 15).is_empty(), "one more reference");
        assert!(blocked_by(b"r6", 30).is_empty(), "outside");
        assert!(shared.release());
        assert!(scan.release());
        assert!(write(b"r4", 3, 15).is_empty());
        assert_eq!(tbl.siread_holder_count(), 0);
    }

    #[test]
    fn keys_spread_across_shards() {
        let tbl = table();
        for i in 0..1000u64 {
            tbl.install_version(&i.to_be_bytes(), t(1), Some(vec![1]));
        }
        let populated = tbl
            .shards
            .iter()
            .filter(|s| !s.rows.read().is_empty())
            .count();
        assert!(populated > SHARD_COUNT / 2, "only {populated} shards used");
        assert_eq!(tbl.key_count(), 1000);
    }

    #[test]
    fn concurrent_readers_and_writers_never_see_partial_chains() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Writers install + commit or install + abort/unlink on a small hot
        // key set while readers hammer reads and scans. Every read must see
        // either nothing or a fully installed, committed value of the
        // expected shape; rollback races must never surface as panics or
        // torn state. Writers follow the engine's protocol: a per-key mutex
        // stands in for the EXCLUSIVE lock, held until the version is
        // settled, and commit timestamps come from one clock.
        let tbl = Arc::new(table());
        let stop = Arc::new(AtomicBool::new(false));
        let keys: Vec<Vec<u8>> = (0..8u64).map(|i| i.to_be_bytes().to_vec()).collect();
        let exclusive: Arc<Vec<Mutex<()>>> = Arc::new((0..8).map(|_| Mutex::new(())).collect());
        let clock = Arc::new(std::sync::atomic::AtomicU64::new(1000));

        std::thread::scope(|s| {
            for w in 0..4u64 {
                let tbl = tbl.clone();
                let stop = stop.clone();
                let keys = keys.clone();
                let exclusive = exclusive.clone();
                let clock = clock.clone();
                s.spawn(move || {
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let slot = ((n + w) % 8) as usize;
                        let key = &keys[slot];
                        let txn = t(w * 1_000_000 + n + 1);
                        let payload = vec![w as u8; 64];
                        let _held = exclusive[slot].lock();
                        // Prunes at the newest commit once the chain is long.
                        let horizon = || clock.load(Ordering::SeqCst);
                        let v = tbl.install(key, txn, Some(payload.into()), horizon).version;
                        if n.is_multiple_of(3) {
                            // Rollback path: abort and unlink.
                            v.mark_aborted();
                            tbl.unlink_version(key, &v);
                        } else {
                            v.mark_committed(clock.fetch_add(1, Ordering::SeqCst) + 1);
                        }
                        n += 1;
                    }
                });
            }
            for r in 0..4u64 {
                let tbl = tbl.clone();
                let stop = stop.clone();
                let keys = keys.clone();
                s.spawn(move || {
                    let reader = t(900_000_000 + r);
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let key = &keys[(n % 8) as usize];
                        let read = tbl.read(key, reader, u64::MAX - 1);
                        if let Some(value) = &read.value {
                            assert_eq!(value.len(), 64, "torn value");
                            assert!(value.iter().all(|b| *b == value[0]), "torn value");
                        }
                        if n.is_multiple_of(16) {
                            for entry in
                                tbl.scan(Bound::Unbounded, Bound::Unbounded, reader, u64::MAX - 1)
                            {
                                if let Some(value) = &entry.value {
                                    assert_eq!(value.len(), 64, "torn scan value");
                                }
                            }
                        }
                        n += 1;
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(300));
            stop.store(true, Ordering::Relaxed);
        });

        // The maps must still agree after the dust settles, in both
        // directions: every ordered-index key resolves in its hash shard
        // and every hash-shard key appears in the ordered index.
        let mut ordered_keys: Vec<Vec<u8>> = tbl
            .keys_in_range(Bound::Unbounded, Bound::Unbounded)
            .iter()
            .map(|k| k.to_vec())
            .collect();
        ordered_keys.sort();
        let mut shard_keys: Vec<Vec<u8>> = tbl
            .shards
            .iter()
            .flat_map(|s| s.rows.read().keys().map(|k| k.to_vec()).collect::<Vec<_>>())
            .collect();
        shard_keys.sort();
        assert_eq!(
            ordered_keys, shard_keys,
            "hash shards and ordered index diverged"
        );
        for key in &ordered_keys {
            assert!(tbl.chain(key).is_some(), "ordered index out of sync");
        }
    }

    #[test]
    fn scans_stay_key_ordered_across_shards_under_concurrent_inserts() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let tbl = Arc::new(table());
        let stop = Arc::new(AtomicBool::new(false));
        // Seed every even key, committed at ts 10.
        for i in (0..512u64).step_by(2) {
            let v = tbl.install_version(&i.to_be_bytes(), t(1), Some(i.to_be_bytes().to_vec()));
            v.mark_committed(10);
        }
        std::thread::scope(|s| {
            {
                let tbl = tbl.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    // Keep inserting odd keys (new chains → ordered-index
                    // writes) while scans run.
                    let mut i = 1u64;
                    let mut n = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let v =
                            tbl.install_version(&(i % 512).to_be_bytes(), t(2 + n), Some(vec![9]));
                        v.mark_committed(100 + n);
                        i += 2;
                        n += 1;
                    }
                });
            }
            for _ in 0..3 {
                let tbl = tbl.clone();
                let stop = stop.clone();
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let entries = tbl.scan(Bound::Unbounded, Bound::Unbounded, t(999_999), 50);
                        // Strictly ascending keys, and every seeded even key
                        // (committed before the scan snapshot) is present.
                        assert!(
                            entries.windows(2).all(|w| w[0].key < w[1].key),
                            "scan keys out of order"
                        );
                        let evens = entries
                            .iter()
                            .filter(|e| u64::from_be_bytes(e.key[..].try_into().unwrap()) % 2 == 0)
                            .count();
                        assert_eq!(evens, 256, "scan lost a committed key");
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(300));
            stop.store(true, Ordering::Relaxed);
        });
    }
}
