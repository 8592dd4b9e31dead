//! The pre-sharding storage layout, kept for benchmarking.
//!
//! Before the sharded two-level redesign, `ssi_storage::Table` was one
//! global `RwLock<BTreeMap<key, Vec<Arc<Version>>>>` and every read copied
//! its value out with `to_vec()`. This module preserves that design and its
//! per-operation work *faithfully* — the read path walks the chain for the
//! visible version, walks it again for the newest committed timestamp and
//! again for key-existence, exactly like the old `Table::read` — so
//! `BENCH_storage.json` and the `storage_concurrent` bench quantify the
//! speedup instead of asserting it.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::RwLock;
use ssi_common::{Timestamp, TxnId};
use ssi_storage::{Version, VersionState};

/// The old `VisibleRead`: owned value copy, heap-allocated conflict list.
#[derive(Clone, Debug, Default)]
pub struct BaselineVisibleRead {
    pub value: Option<Vec<u8>>,
    pub newer_creators: Vec<TxnId>,
    pub newest_committed_ts: Option<Timestamp>,
    pub key_exists: bool,
    pub read_version_ts: Option<Timestamp>,
    pub read_own_write: bool,
}

/// Single-lock multi-version table: the old `ssi_storage::Table` layout.
#[derive(Default)]
pub struct BaselineTable {
    rows: RwLock<BTreeMap<Vec<u8>, Vec<Arc<Version>>>>,
}

impl BaselineTable {
    pub fn new() -> Self {
        Self::default()
    }

    fn read_chain(
        chain: &[Arc<Version>],
        reader: TxnId,
        snapshot_ts: Timestamp,
    ) -> (Option<Vec<u8>>, Vec<TxnId>, Option<Timestamp>, bool) {
        let mut newer = Vec::new();
        for v in chain.iter() {
            if v.state() == VersionState::Aborted {
                continue;
            }
            if v.visible_to(reader, snapshot_ts) {
                let value = v.value().map(|b| b.to_vec());
                return (value, newer, v.commit_ts(), v.creator() == reader);
            }
            newer.push(v.creator());
        }
        (None, newer, None, false)
    }

    fn newest_committed_in(chain: &[Arc<Version>]) -> Option<Timestamp> {
        chain.iter().filter_map(|v| v.commit_ts()).max()
    }

    /// Snapshot read with the old implementation's exact work profile:
    /// value copied out, chain walked once for visibility, once for the
    /// newest committed timestamp and once for key-existence.
    pub fn read(&self, key: &[u8], reader: TxnId, snapshot_ts: Timestamp) -> BaselineVisibleRead {
        let rows = self.rows.read();
        match rows.get(key) {
            None => BaselineVisibleRead::default(),
            Some(chain) => {
                let (value, newer_creators, read_version_ts, read_own_write) =
                    Self::read_chain(chain, reader, snapshot_ts);
                BaselineVisibleRead {
                    value,
                    newer_creators,
                    newest_committed_ts: Self::newest_committed_in(chain),
                    key_exists: chain.iter().any(|v| v.state() != VersionState::Aborted),
                    read_version_ts,
                    read_own_write,
                }
            }
        }
    }

    /// Installs an uncommitted version at the head of the chain (global
    /// write lock, like the old implementation).
    pub fn install_version(
        &self,
        key: &[u8],
        creator: TxnId,
        value: Option<Vec<u8>>,
    ) -> Arc<Version> {
        let version = Arc::new(Version::new(creator, value.map(Into::into)));
        let mut rows = self.rows.write();
        rows.entry(key.to_vec())
            .or_default()
            .insert(0, version.clone());
        version
    }

    /// Snapshot range scan over the whole table with the old per-row work:
    /// key cloned, value copied, newer-creators vector built.
    pub fn scan_all(&self, reader: TxnId, snapshot_ts: Timestamp) -> Vec<(Vec<u8>, Vec<u8>)> {
        let rows = self.rows.read();
        let mut out = Vec::new();
        for (key, chain) in rows.range::<[u8], _>((Bound::Unbounded, Bound::Unbounded)) {
            if chain.iter().all(|v| v.state() == VersionState::Aborted) {
                continue;
            }
            let (value, _newer, _ts, _own) = Self::read_chain(chain, reader, snapshot_ts);
            if let Some(value) = value {
                out.push((key.clone(), value));
            }
        }
        out
    }

    /// Version garbage collection, as the old `purge_versions` did it:
    /// one pass over every chain under the global write lock.
    pub fn purge_versions(&self, oldest_active_snapshot: Timestamp) -> usize {
        let mut rows = self.rows.write();
        let mut reclaimed = 0;
        for chain in rows.values_mut() {
            let mut keep_upto = None;
            for (i, v) in chain.iter().enumerate() {
                match v.state() {
                    VersionState::Committed(ts) if ts <= oldest_active_snapshot => {
                        keep_upto = Some(i);
                        break;
                    }
                    _ => {}
                }
            }
            if let Some(idx) = keep_upto {
                reclaimed += chain.len() - (idx + 1);
                chain.truncate(idx + 1);
            }
        }
        reclaimed
    }

    pub fn key_count(&self) -> usize {
        self.rows.read().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_read_write_scan_purge() {
        let t = BaselineTable::new();
        let v = t.install_version(b"a", TxnId(1), Some(vec![7]));
        v.mark_committed(5);
        let v2 = t.install_version(b"a", TxnId(2), Some(vec![8]));
        v2.mark_committed(9);
        let r = t.read(b"a", TxnId(3), 10);
        assert_eq!(r.value, Some(vec![8]));
        assert_eq!(r.newest_committed_ts, Some(9));
        assert!(r.key_exists);
        let r = t.read(b"a", TxnId(3), 7);
        assert_eq!(r.value, Some(vec![7]));
        assert_eq!(r.newer_creators, vec![TxnId(2)]);
        assert_eq!(t.scan_all(TxnId(3), 10).len(), 1);
        assert_eq!(t.purge_versions(10), 1);
        assert_eq!(t.key_count(), 1);
    }
}
