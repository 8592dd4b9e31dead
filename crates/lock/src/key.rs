//! Lock names: what a lock protects.
//!
//! Following the two prototype systems in the paper, a lock can protect a
//! *record* (InnoDB-style row locking), the *gap* before a record (InnoDB
//! next-key/gap locking, Sec. 3.5), a *page* (Berkeley-DB-style page
//! locking, Sec. 4.2), or the table *supremum* (the gap after the last
//! record).
//!
//! The engine names records, pages and transactions. It takes no gap or
//! supremum lock any more — phantoms are kept out by the range a scan
//! registers with the table or index it scans (`ssi_storage::range`) — but
//! [`LockTarget::Gap`] and [`LockTarget::Supremum`] stay: they are the
//! next-key oracle that storage's SIREAD model test checks the ranges
//! against, and this crate's own tests run on them, which makes them a
//! reference implementation.
//!
//! The [`TableId`] in a [`LockKey`] names a lock *namespace*, not only a
//! table: secondary indexes reuse the same machinery with their own id, so
//! `Record(entry)` under an index id is a unique-constraint marker lock. One
//! namespace no table or index gets, `TXN_NAMESPACE`, names transactions:
//! [`LockKey::transaction`] is what a writer waits on for an S2PL scanner. The
//! lock manager is oblivious to which namespace a key lives in.
//!
//! Record and gap targets hold their key as `Arc<[u8]>`: the storage layer's
//! ordered index already owns every row key (and index entry) in that form,
//! so a scan names its locks by bumping a refcount, and the lock table, the
//! transaction's lock set and a suspended transaction's SIREAD list all share
//! the one allocation.

use ssi_common::{TableId, TxnId};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// What a lock protects inside a table.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockTarget {
    /// A single record, identified by its encoded key.
    Record(Arc<[u8]>),
    /// The gap immediately before the record with this key: a lock on
    /// `Gap(k)` conflicts only with other gap locks on `k`, never with locks
    /// on the record `k` itself (InnoDB gap-lock semantics, Sec. 2.5.2).
    Gap(Arc<[u8]>),
    /// The gap after the last record of the table ("supremum" key).
    Supremum,
    /// A whole page of records (Berkeley DB granularity).
    Page(u64),
}

impl fmt::Debug for LockTarget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LockTarget::Record(k) => write!(f, "rec({})", hex_prefix(k)),
            LockTarget::Gap(k) => write!(f, "gap({})", hex_prefix(k)),
            LockTarget::Supremum => write!(f, "supremum"),
            LockTarget::Page(p) => write!(f, "page({p})"),
        }
    }
}

fn hex_prefix(k: &[u8]) -> String {
    let take = k.len().min(8);
    let mut s = String::with_capacity(take * 2 + 2);
    for b in &k[..take] {
        s.push_str(&format!("{b:02x}"));
    }
    if k.len() > take {
        s.push('…');
    }
    s
}

/// The lock namespace of transactions (see [`LockKey::transaction`]). A
/// reserved namespace rather than a new target kind: a record name in it is
/// all a transaction's name needs to be, and no match over [`LockTarget`]
/// grows an arm for it.
const TXN_NAMESPACE: TableId = TableId(u32::MAX);

/// Fully qualified lock name: table plus target.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LockKey {
    /// Table the target belongs to.
    pub table: TableId,
    /// Protected object within the table.
    pub target: LockTarget,
}

impl LockKey {
    /// Lock name for a record.
    pub fn record(table: TableId, key: impl Into<Arc<[u8]>>) -> Self {
        LockKey {
            table,
            target: LockTarget::Record(key.into()),
        }
    }

    /// Lock name for the gap before `key`.
    pub fn gap(table: TableId, key: impl Into<Arc<[u8]>>) -> Self {
        LockKey {
            table,
            target: LockTarget::Gap(key.into()),
        }
    }

    /// Lock name for the gap after the last record of `table`.
    pub fn supremum(table: TableId) -> Self {
        LockKey {
            table,
            target: LockTarget::Supremum,
        }
    }

    /// Lock name for a page of `table`.
    pub fn page(table: TableId, page: u64) -> Self {
        LockKey {
            table,
            target: LockTarget::Page(page),
        }
    }

    /// Lock name for transaction `txn` itself: held EXCLUSIVE by an S2PL
    /// transaction from before its first range registration until it
    /// commits or aborts, and requested SHARED by a writer that has to wait
    /// for it to finish.
    pub fn transaction(txn: TxnId) -> Self {
        LockKey::record(TXN_NAMESPACE, txn.as_u64().to_be_bytes())
    }

    /// Feeds the part of the name that picks the lock-table shard: the
    /// table and the key bytes, but not whether the target is the record or
    /// the gap before it. A row's record lock and gap lock therefore live in
    /// one shard, and a scan reaches both under one shard mutex.
    pub(crate) fn hash_placement<H: Hasher>(&self, state: &mut H) {
        self.table.hash(state);
        match &self.target {
            LockTarget::Record(k) | LockTarget::Gap(k) => state.write(k),
            LockTarget::Supremum => state.write_u8(0),
            LockTarget::Page(p) => state.write_u64(*p),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_gap_on_same_key_are_different_locks() {
        let t = TableId(1);
        let r = LockKey::record(t, vec![1, 2, 3]);
        let g = LockKey::gap(t, vec![1, 2, 3]);
        assert_ne!(r, g);
        assert_ne!(g, LockKey::supremum(t));
    }

    #[test]
    fn transactions_have_names_of_their_own() {
        let t7 = LockKey::transaction(TxnId(7));
        assert_eq!(t7, LockKey::transaction(TxnId(7)));
        assert_ne!(t7, LockKey::transaction(TxnId(8)));
        assert_ne!(t7, LockKey::record(TableId(1), 7u64.to_be_bytes()));
    }

    #[test]
    fn tables_partition_the_namespace() {
        let a = LockKey::record(TableId(1), vec![9]);
        let b = LockKey::record(TableId(2), vec![9]);
        assert_ne!(a, b);
    }

    #[test]
    fn page_locks() {
        let p = LockKey::page(TableId(3), 17);
        assert_eq!(p, LockKey::page(TableId(3), 17));
        assert_ne!(p, LockKey::page(TableId(3), 18));
    }

    #[test]
    fn debug_output_is_compact() {
        let k = LockKey::record(TableId(1), vec![0xde, 0xad, 0xbe, 0xef, 1, 2, 3, 4, 5]);
        let s = format!("{k:?}");
        assert!(s.contains("deadbeef"));
        assert!(s.contains('…'));
        let s2 = format!("{:?}", LockKey::supremum(TableId(1)));
        assert!(s2.contains("supremum"));
    }
}
