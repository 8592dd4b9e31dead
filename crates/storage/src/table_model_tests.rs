//! Chain model test.
//!
//! Random schedules that follow the engine's protocol — one EXCLUSIVE holder
//! per key, commit timestamps from one clock, horizons at or below every open
//! snapshot — drive a table with a secondary index, and after every step
//! each answer the table gives is compared with a reference that walks the
//! *whole* chain the way the table did before reads stopped early, the
//! first-committer-wins probe took the first committed version and pruning
//! started from the oldest end. Pruning, by a writer or by a purge pass, is
//! also checked against the old purge rule version by version, and for the
//! property that makes it safe: for every snapshot at or above the horizon
//! the read is the same before and after.

use std::collections::BTreeMap;
use std::hash::BuildHasher;
use std::ops::Bound;
use std::sync::Arc;

use ssi_common::{TableId, Timestamp, TxnId};
use ssi_lock::FxBuildHasher;

use super::{ScanPage, Table, VisibleRead, WriteProbe, PRUNE_ABOVE, SHARD_COUNT};
use crate::index::{FieldKind, Index, IndexDef, IndexKeyPart, IndexKeySpec};
use crate::version::{Version, VersionState};

const KEYS: usize = 4;
const SEEDS: u64 = 300;
const STEPS: usize = 160;
/// A reader that never writes.
const OUTSIDER: TxnId = TxnId(1);

fn key(k: usize) -> [u8; 2] {
    [b'k', k as u8]
}

/// The hash shard of key `k` (the table's own selector).
fn shard_of(k: usize) -> usize {
    FxBuildHasher::default().hash_one(&key(k)[..]) as usize & (SHARD_COUNT - 1)
}

/// xorshift64*: the schedule is a function of the seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The comparable part of a [`VisibleRead`].
#[derive(Debug, Default, PartialEq, Eq, Clone)]
struct Answer {
    value: Option<Vec<u8>>,
    newer_creators: Vec<TxnId>,
    key_exists: bool,
    read_version_ts: Option<Timestamp>,
    read_own_write: bool,
}

fn answer(r: &VisibleRead) -> Answer {
    Answer {
        value: r.value.as_deref().map(<[u8]>::to_vec),
        newer_creators: r.newer_creators.to_vec(),
        key_exists: r.key_exists,
        read_version_ts: r.read_version_ts,
        read_own_write: r.read_own_write,
    }
}

// ---------------------------------------------------------------------------
// The reference: full walks over a newest-first copy of the chain.
// ---------------------------------------------------------------------------

type Chain = Vec<Arc<Version>>;

fn reference_read(chain: &Chain, reader: TxnId, snapshot_ts: Timestamp) -> Answer {
    let mut out = Answer::default();
    let mut found = false;
    for v in chain {
        if v.state() == VersionState::Aborted {
            continue;
        }
        out.key_exists = true;
        if found {
            continue;
        }
        if v.visible_to(reader, snapshot_ts) {
            found = true;
            out.value = v.value().map(<[u8]>::to_vec);
            out.read_version_ts = v.commit_ts();
            out.read_own_write = v.creator() == reader;
            continue;
        }
        out.newer_creators.push(v.creator());
    }
    out
}

fn reference_probe(chain: &Chain) -> WriteProbe {
    WriteProbe {
        newest_committed_ts: chain.iter().filter_map(|v| v.commit_ts()).max(),
        has_live_version: chain.iter().any(|v| v.state() != VersionState::Aborted),
    }
}

fn reference_latest_committed(chain: &Chain, reader: TxnId) -> LatestAnswer {
    let found = chain.iter().find(|v| v.visible_to_read_committed(reader));
    let committed = found.and_then(|v| v.commit_ts());
    (
        found.and_then(|v| v.value().map(<[u8]>::to_vec)),
        committed,
        found.is_some_and(|v| v.creator() == reader && committed.is_none()),
    )
}

/// What [`Table::read_latest`] answers: the value, the commit timestamp of
/// the version read, and whether it was the reader's own.
type LatestAnswer = (Option<Vec<u8>>, Option<Timestamp>, bool);

/// The purge rule as it was: from the newest version, the first one
/// committed at or below the horizon is kept and everything after it goes;
/// a pass (not a writer) then drops aborted leftovers too.
fn reference_reclaim(chain: &Chain, horizon: Timestamp, drop_aborted: bool) -> Chain {
    let keep = chain
        .iter()
        .position(|v| matches!(v.state(), VersionState::Committed(ts) if ts <= horizon));
    let mut kept: Chain = match keep {
        Some(i) => chain[..=i].to_vec(),
        None => chain.clone(),
    };
    if drop_aborted {
        kept.retain(|v| v.state() != VersionState::Aborted);
    }
    kept
}

fn is_dead_tombstone(chain: &Chain, horizon: Timestamp) -> bool {
    chain.len() == 1
        && chain[0].is_tombstone()
        && matches!(chain[0].state(), VersionState::Committed(ts) if ts <= horizon)
}

/// The order invariant over a whole chain (newest first): the holder's
/// uncommitted versions, then committed ones in non-increasing timestamp order.
fn assert_order(chain: &Chain, holder: Option<TxnId>, context: &str) {
    let mut newer_commit: Option<Timestamp> = None;
    for v in chain {
        match v.state() {
            VersionState::Aborted => {}
            VersionState::Committed(ts) => {
                assert!(
                    newer_commit.is_none_or(|newer| ts <= newer),
                    "{context}: commit order broken: {chain:?}"
                );
                newer_commit = Some(ts);
            }
            _ => assert!(
                newer_commit.is_none() && Some(v.creator()) == holder,
                "{context}: uncommitted version out of place: {chain:?}"
            ),
        }
    }
}

fn same_versions(a: &Chain, b: &Chain) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| Arc::ptr_eq(x, y))
}

// ---------------------------------------------------------------------------
// The model
// ---------------------------------------------------------------------------

/// The transaction holding a key's EXCLUSIVE lock.
struct Holder {
    txn: TxnId,
    /// Its snapshot; `None` models a writer at a level without snapshots,
    /// whose allocated commit timestamp the horizon can overtake.
    begin: Option<Timestamp>,
    /// Its versions of the key, oldest first.
    versions: Chain,
    /// Its commit timestamp once allocated: the holder is committing, and
    /// its versions stay uncommitted until the commit stamps them.
    allocated: Option<Timestamp>,
}

struct Model {
    seed: u64,
    rng: Rng,
    table: Table,
    index: Arc<Index>,
    /// The last commit timestamp handed out (and published).
    clock: Timestamp,
    next_txn: u64,
    holders: [Option<Holder>; KEYS],
    /// Open snapshots besides the holders' own.
    snapshots: Vec<Timestamp>,
    /// Creator of the last commit, used as one more reader.
    last_committer: TxnId,
    /// A page of chain handles taken some steps ago.
    stale_page: Option<ScanPage>,
    pruned_inline: usize,
    purged: u64,
}

impl Model {
    fn new(seed: u64) -> Self {
        let table = Table::new(TableId(1), "model");
        let index = Arc::new(Index::new(IndexDef {
            id: TableId(2),
            name: "by_value".into(),
            table: table.id(),
            unique: false,
            spec: IndexKeySpec {
                layout: vec![FieldKind::U32],
                parts: vec![IndexKeyPart::ValueField(0)],
            },
        }));
        table.register_index(index.clone());
        Model {
            seed,
            rng: Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            table,
            index,
            clock: 1,
            next_txn: 10,
            holders: std::array::from_fn(|_| None),
            snapshots: Vec::new(),
            last_committer: OUTSIDER,
            stale_page: None,
            pruned_inline: 0,
            purged: 0,
        }
    }

    /// The chain of key `k`, newest first (empty when the key is gone).
    fn chain(&self, k: usize) -> Chain {
        self.table.chain(&key(k)).map_or(Vec::new(), |c| {
            c.state.lock().versions.iter().rev().cloned().collect()
        })
    }

    /// What `TransactionManager::gc_horizon` would return: at or below the
    /// clock, every open snapshot and every active writer's begin.
    fn horizon(&self) -> Timestamp {
        let begins = self.holders.iter().flatten().filter_map(|h| h.begin);
        begins
            .chain(self.snapshots.iter().copied())
            .fold(self.clock, Timestamp::min)
    }

    fn readers(&self) -> Vec<TxnId> {
        let mut readers = vec![OUTSIDER, self.last_committer];
        readers.extend(self.holders.iter().flatten().map(|h| h.txn));
        readers
    }

    /// Table reads of key `k` by every reader at every snapshot at or above
    /// `horizon`: what pruning at `horizon` must leave alone.
    fn reads_from(&self, k: usize, horizon: Timestamp) -> Vec<Answer> {
        let mut out = Vec::new();
        for reader in self.readers() {
            for s in horizon..=self.clock + 1 {
                out.push(answer(&self.table.read(&key(k), reader, s)));
            }
        }
        out
    }

    fn write(&mut self, k: usize) {
        if self.holders[k]
            .as_ref()
            .is_some_and(|h| h.allocated.is_some())
        {
            return; // committing: no more writes
        }
        if self.holders[k].is_none() {
            let txn = TxnId(self.next_txn);
            self.next_txn += 1;
            self.holders[k] = Some(Holder {
                txn,
                begin: (self.rng.below(4) != 0).then_some(self.clock),
                versions: Vec::new(),
                allocated: None,
            });
        }
        let txn = self.holders[k].as_ref().expect("holder set above").txn;
        let value = match self.rng.below(4) {
            0 => None,
            n => Some((n as u32).to_le_bytes().to_vec()),
        };
        let horizon = self.horizon();
        let before = self.chain(k);
        let mut horizon_reads = 0;
        let installed = self.table.install(&key(k), txn, value.map(Into::into), || {
            horizon_reads += 1;
            horizon
        });
        let after = self.chain(k);
        let context = format!("seed {} install on key {k} at horizon {horizon}", self.seed);

        let long = before.len() > PRUNE_ABOVE;
        assert_eq!(horizon_reads, usize::from(long), "{context}");
        let survivors = if long {
            reference_reclaim(&before, horizon, false)
        } else {
            before.clone()
        };
        assert!(Arc::ptr_eq(&after[0], &installed.version), "{context}");
        assert!(
            same_versions(&after[1..].to_vec(), &survivors),
            "{context}: writer pruned differently from the purge rule\n{before:?}\n{after:?}"
        );
        assert_eq!(
            installed.pruned,
            before.len() - survivors.len(),
            "{context}"
        );
        for reader in self.readers() {
            for s in horizon..=self.clock + 1 {
                assert_eq!(
                    reference_read(&before, reader, s),
                    reference_read(&survivors, reader, s),
                    "{context}: pruning changed what {reader:?} reads at {s}"
                );
            }
        }
        self.pruned_inline += installed.pruned;
        let holder = self.holders[k].as_mut().expect("holder set above");
        holder.versions.push(installed.version);
    }

    /// The holder enters its commit and allocates its timestamp; nothing is
    /// stamped until [`Model::commit`].
    fn allocate(&mut self, k: usize) {
        let Some(holder) = self.holders[k].as_mut() else {
            return;
        };
        if holder.allocated.is_none() {
            self.clock += 1;
            holder.allocated = Some(self.clock);
        }
    }

    fn commit(&mut self, k: usize) {
        let Some(holder) = self.holders[k].take() else {
            return;
        };
        let ts = holder.allocated.unwrap_or_else(|| {
            self.clock += 1;
            self.clock
        });
        for v in &holder.versions {
            v.mark_committed(ts);
        }
        self.last_committer = holder.txn;
    }

    fn abort(&mut self, k: usize) {
        let Some(holder) = self.holders[k].take() else {
            return;
        };
        for v in &holder.versions {
            v.mark_aborted();
        }
        if self.rng.below(3) == 0 {
            // A purge pass gets to the leftovers before the rollback does.
            self.purge(None);
        }
        for v in &holder.versions {
            self.table.unlink_version(&key(k), v);
        }
    }

    fn toggle_snapshot(&mut self) {
        if self.snapshots.len() < 3 && self.rng.below(2) == 0 {
            self.snapshots.push(self.clock);
        } else if !self.snapshots.is_empty() {
            let at = self.rng.below(self.snapshots.len() as u64) as usize;
            self.snapshots.swap_remove(at);
        }
    }

    /// One purge pass at the safe horizon: a single shard, or (`None`) the
    /// whole table.
    fn purge(&mut self, shard: Option<usize>) {
        let horizon = self.horizon();
        let before: Vec<Chain> = (0..KEYS).map(|k| self.chain(k)).collect();
        let reads_before: Vec<Vec<Answer>> =
            (0..KEYS).map(|k| self.reads_from(k, horizon)).collect();
        let stats = match shard {
            Some(idx) => self.table.purge_shard(idx, horizon),
            None => self.table.purge_old_versions(horizon),
        };
        let (mut versions, mut chains) = (0, 0);
        for k in 0..KEYS {
            let context = format!("seed {} purge of key {k} at horizon {horizon}", self.seed);
            let after = self.chain(k);
            if shard.is_some_and(|idx| idx % SHARD_COUNT != shard_of(k)) {
                assert!(same_versions(&before[k], &after), "{context}: wrong shard");
                continue;
            }
            // A key is removed when history leaves only a dead tombstone; an
            // aborted leftover beside it defers that to the next pass.
            let removed =
                is_dead_tombstone(&reference_reclaim(&before[k], horizon, false), horizon);
            let mut expected = reference_reclaim(&before[k], horizon, true);
            if removed {
                expected.clear();
                chains += 1;
            }
            assert!(
                same_versions(&after, &expected),
                "{context}: pass differs from the purge rule\n{:?}\n{after:?}",
                before[k]
            );
            versions += (before[k].len() - after.len()) as u64;
            let reads_after = self.reads_from(k, horizon);
            if removed {
                // The key is gone for every snapshot that could still ask.
                assert!(reads_after.iter().all(|r| *r == Answer::default()));
                assert!(reads_before[k].iter().all(|r| r.value.is_none()));
            } else {
                assert_eq!(
                    reads_before[k], reads_after,
                    "{context}: pruning moved a read"
                );
            }
        }
        assert_eq!((stats.versions, stats.chains), (versions, chains));
        assert_eq!(stats.horizon, horizon);
        self.purged += stats.versions;
    }

    /// Every answer of the table against the reference, the order invariant
    /// and the index reference counts.
    fn check(&self) {
        let horizon = self.horizon();
        let fresh = self
            .table
            .cursor(Bound::Unbounded, Bound::Unbounded)
            .next_page()
            .expect("first page");
        let mut rng = Rng(self.rng.0 ^ 0xA5A5 | 1);
        let mut snapshots = vec![0, horizon, self.clock, self.clock + 1];
        snapshots.extend((0..4).map(|_| rng.below(self.clock + 2)));
        let mut refs: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
        let mut resident_keys = 0;

        for k in 0..KEYS {
            let context = format!("seed {} key {k}", self.seed);
            let key = key(k);
            let chain = self.chain(k);
            let holder = self.holders[k].as_ref().map(|h| h.txn);
            assert_order(&chain, holder, &context);
            resident_keys += usize::from(self.table.chain(&key).is_some());
            for v in &chain {
                if let Some(entry) = v.value().and_then(|value| self.index.entry_of(&key, value)) {
                    *refs.entry(entry).or_default() += 1;
                }
            }

            let probe = reference_probe(&chain);
            assert_eq!(self.table.write_probe(&key), probe, "{context}");
            assert_eq!(self.table.contains_key(&key), probe.has_live_version);
            let rows = fresh
                .rows
                .iter()
                .chain(self.stale_page.iter().flat_map(|p| &p.rows));
            let rows: Vec<_> = rows.filter(|row| row.key[..] == key[..]).collect();
            for reader in self.readers() {
                let read = self.table.read_latest(&key, reader);
                let value = read.value.map(|b| b.to_vec());
                assert_eq!(
                    (value, read.read_version_ts, read.read_own_write),
                    reference_latest_committed(&chain, reader),
                    "{context}: read committed by {reader:?}"
                );
                for &s in &snapshots {
                    let expected = reference_read(&chain, reader, s);
                    let read = self.table.read(&key, reader, s);
                    assert_eq!(answer(&read), expected, "{context}: {reader:?} at {s}");
                    for row in &rows {
                        let read = self.table.read_row(row, reader, s);
                        assert_eq!(answer(&read), expected, "{context}: row read at {s}");
                    }
                }
            }
        }
        assert_eq!(self.table.key_count(), resident_keys);
        assert_eq!(
            self.index.ref_counts(),
            refs,
            "seed {}: one index reference per resident version",
            self.seed
        );
    }

    fn step(&mut self) {
        let k = self.rng.below(KEYS as u64) as usize;
        match self.rng.below(16) {
            0..=6 => self.write(k),
            7 => self.allocate(k),
            8..=10 => self.commit(k),
            11 => self.abort(k),
            12 => self.toggle_snapshot(),
            13 => {
                let shard = self.rng.below(2 * SHARD_COUNT as u64) as usize;
                self.purge(Some(shard));
            }
            14 => self.purge(None),
            _ => {
                let mut cursor = self.table.cursor(Bound::Unbounded, Bound::Unbounded);
                self.stale_page = cursor.next_page();
            }
        }
        self.check();
    }
}

#[test]
fn chain_model_matches_the_full_walk_reference_and_pruning_is_safe() {
    let (mut pruned_inline, mut purged) = (0, 0);
    for seed in 1..=SEEDS {
        let mut model = Model::new(seed);
        for _ in 0..STEPS {
            model.step();
        }
        pruned_inline += model.pruned_inline;
        purged += model.purged;
    }
    // The schedules must actually reach both reclamation paths.
    assert!(
        pruned_inline > SEEDS as usize,
        "writers pruned {pruned_inline}"
    );
    assert!(purged > SEEDS, "passes purged {purged}");
}
