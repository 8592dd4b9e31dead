//! Multiversion serialization graph (MVSG) construction and checking.
//!
//! The thesis validates its InnoDB prototype by exhaustively interleaving
//! small transaction sets and manually checking that no non-serializable
//! execution commits (Sec. 4.7). We automate that check: when a database is
//! opened with [`crate::Options::record_history`], every committed
//! transaction's read and write sets are recorded, and [`MvsgReport`] can be
//! built after the run to ask:
//!
//! * is the execution conflict-serializable (is the MVSG acyclic)?
//! * does it contain the *dangerous structure* of Theorem 2 (two consecutive
//!   rw-antidependencies with the outgoing transaction committing first)?
//! * did every read return a version that committed ([`DanglingRead`]), and
//!   the newest one its snapshot covers ([`LostRead`])?
//!
//! A read's snapshot is the recorded `begin_ts`: the snapshot at SI and
//! Serializable SI, and the commit timestamp at the levels without one, whose
//! recorded reads (S2PL reads, every level's locking reads; read committed
//! records no other) hold a lock on the row from the read to the commit, so
//! no write of it commits in between. The last two checks therefore cover
//! every recorded read at every level.
//!
//! The graph is built exactly as in Sec. 2.5.1: ww-edges between writers of
//! the same item in version order, wr-edges from a version's creator to its
//! readers, and rw-antidependencies from a reader of a version to the writer
//! of any later version of the same item.
//!
//! Secondary-index predicates need no special casing here: index scans
//! record their reads (present entries with the claiming row's version
//! timestamp, absences with `version_ts: None`) under the *index's* id, and
//! index maintenance records entry installs/retirements as writes under the
//! same id. An index entry is thus just another item, and a phantom slipping
//! past an index scan's entry range shows up as an ordinary rw-antidependency
//! cycle.

use std::collections::{HashMap, HashSet};

use parking_lot::Mutex;

use ssi_common::{TableId, Timestamp, TxnId};

/// One recorded read: which version of which item was observed.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ReadRecord {
    /// Table of the item.
    pub table: TableId,
    /// Item key.
    pub key: Vec<u8>,
    /// Commit timestamp of the version read; `None` means the item did not
    /// exist (or only the transaction's own write was visible).
    pub version_ts: Option<Timestamp>,
    /// True if the transaction had written the item before this read, whose
    /// own version is then one a read of absence can have missed.
    pub after_own_write: bool,
}

/// One recorded write: a version this transaction created.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct WriteRecordEntry {
    /// Table of the item.
    pub table: TableId,
    /// Item key.
    pub key: Vec<u8>,
    /// True if the version was a deletion tombstone. Lets the verifier
    /// decide whether a later read of *absence* is consistent (the newest
    /// version at the reader's snapshot was a tombstone) or a lost read
    /// (it was a live value the reader should have seen).
    pub tombstone: bool,
}

/// Read/write footprint of one committed transaction.
#[derive(Clone, Debug)]
pub struct CommittedTxn {
    /// Transaction id.
    pub id: TxnId,
    /// Snapshot timestamp.
    pub begin_ts: Timestamp,
    /// Commit timestamp.
    pub commit_ts: Timestamp,
    /// Items read, with the version observed.
    pub reads: Vec<ReadRecord>,
    /// Items written.
    pub writes: Vec<WriteRecordEntry>,
}

/// Collects committed-transaction footprints during a run.
#[derive(Default)]
pub struct HistoryRecorder {
    committed: Mutex<Vec<CommittedTxn>>,
}

impl HistoryRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a committed transaction.
    pub fn record(&self, txn: CommittedTxn) {
        self.committed.lock().push(txn);
    }

    /// Number of committed transactions recorded.
    pub fn len(&self) -> usize {
        self.committed.lock().len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the recorded history.
    pub fn snapshot(&self) -> Vec<CommittedTxn> {
        self.committed.lock().clone()
    }

    /// Builds and analyses the MVSG of the recorded history.
    pub fn analyze(&self) -> MvsgReport {
        MvsgReport::build(&self.snapshot())
    }
}

/// Kind of dependency edge in the MVSG.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum EdgeKind {
    /// Write-write dependency (version order).
    Ww,
    /// Write-read dependency (reads-from).
    Wr,
    /// Read-write antidependency (the vulnerable kind under SI).
    Rw,
}

/// A dependency edge between two committed transactions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Edge {
    /// Source transaction.
    pub from: TxnId,
    /// Destination transaction.
    pub to: TxnId,
    /// Edge kind.
    pub kind: EdgeKind,
}

/// A read that observed *absence* although the newest version committed at
/// or before the reader's snapshot was a live value — the reader should
/// have seen it. In a correct engine this cannot happen (version GC never
/// reclaims the newest version at or below any snapshot); it is the
/// signature of a purged-too-early chain or a broken visibility check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LostRead {
    /// The reader.
    pub reader: TxnId,
    /// Table of the item.
    pub table: TableId,
    /// Item key.
    pub key: Vec<u8>,
    /// Commit timestamp of the live version the reader failed to observe.
    pub missed_ts: Timestamp,
}

/// A committed read that returned a version of its item that no committed
/// transaction of the history wrote: an uncommitted or rolled-back value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DanglingRead {
    /// The reader.
    pub reader: TxnId,
    /// Table of the item.
    pub table: TableId,
    /// Item key.
    pub key: Vec<u8>,
    /// The timestamp the read named.
    pub version_ts: Timestamp,
}

/// Result of analysing a recorded history.
#[derive(Clone, Debug)]
pub struct MvsgReport {
    /// All edges of the graph.
    pub edges: Vec<Edge>,
    /// A cycle, if one exists (transaction ids in order).
    pub cycle: Option<Vec<TxnId>>,
    /// Pivots of dangerous structures: transactions with an incoming and an
    /// outgoing rw-antidependency from/to concurrent transactions.
    pub pivots: Vec<TxnId>,
    /// Reads of absence that should have observed a live value (see
    /// [`LostRead`]).
    pub lost_reads: Vec<LostRead>,
    /// Stale reads: reads of a version older than the newest one committed
    /// at or before the reader's snapshot, which is the `missed_ts` of the
    /// [`LostRead`] (a snapshot at `s` sees every commit at or below `s`).
    pub stale_reads: Vec<LostRead>,
    /// Reads of versions nobody committed (see [`DanglingRead`]).
    pub dangling_reads: Vec<DanglingRead>,
}

impl MvsgReport {
    /// True if the history is conflict-serializable: the MVSG is acyclic,
    /// no read lost or missed a value it was entitled to see and none saw a
    /// value that never committed.
    pub fn is_serializable(&self) -> bool {
        self.cycle.is_none()
            && self.lost_reads.is_empty()
            && self.stale_reads.is_empty()
            && self.dangling_reads.is_empty()
    }

    /// Builds the MVSG for a set of committed transactions and analyses it.
    pub fn build(history: &[CommittedTxn]) -> MvsgReport {
        let by_id: HashMap<TxnId, &CommittedTxn> = history.iter().map(|t| (t.id, t)).collect();

        // Index versions per item: (table, key) -> sorted list of
        // (commit_ts, writer, tombstone).
        type VersionIndex<'a> = HashMap<(TableId, &'a [u8]), Vec<(Timestamp, TxnId, bool)>>;
        let mut versions: VersionIndex = HashMap::new();
        for txn in history {
            for w in &txn.writes {
                let entry = versions.entry((w.table, w.key.as_slice())).or_default();
                // A transaction overwriting the same key several times only
                // produces one externally visible version — the last write
                // (the write set is recorded in install order) decides
                // whether it is a tombstone.
                match entry
                    .iter_mut()
                    .find(|(ts, id, _)| (*ts, *id) == (txn.commit_ts, txn.id))
                {
                    Some(existing) => existing.2 = w.tombstone,
                    None => entry.push((txn.commit_ts, txn.id, w.tombstone)),
                }
            }
        }
        for list in versions.values_mut() {
            list.sort_unstable();
        }

        let mut edges: HashSet<Edge> = HashSet::new();
        let mut lost_reads: Vec<LostRead> = Vec::new();
        let mut stale_reads: Vec<LostRead> = Vec::new();
        let mut dangling_reads: Vec<DanglingRead> = Vec::new();

        // ww edges: consecutive writers in version order.
        for list in versions.values() {
            for pair in list.windows(2) {
                if pair[0].1 != pair[1].1 {
                    edges.insert(Edge {
                        from: pair[0].1,
                        to: pair[1].1,
                        kind: EdgeKind::Ww,
                    });
                }
            }
        }

        // wr and rw edges from reads.
        for txn in history {
            for r in &txn.reads {
                let item_versions = versions.get(&(r.table, r.key.as_slice()));
                if let Some(read_ts) = r.version_ts {
                    let listed = item_versions.into_iter().flatten();
                    if !listed.clone().any(|&(ts, _, _)| ts == read_ts) {
                        dangling_reads.push(DanglingRead {
                            reader: txn.id,
                            table: r.table,
                            key: r.key.clone(),
                            version_ts: read_ts,
                        });
                    }
                    // Another transaction's commit the snapshot covers, newer
                    // than the version read. The reader's own version, and
                    // every version after its own write, are not what it read.
                    let missed = listed
                        .filter(|&&(ts, writer, _)| {
                            read_ts < ts && ts <= txn.begin_ts && writer != txn.id
                        })
                        .map(|&(ts, _, _)| ts)
                        .max();
                    if let (Some(missed_ts), false) = (missed, r.after_own_write) {
                        stale_reads.push(LostRead {
                            reader: txn.id,
                            table: r.table,
                            key: r.key.clone(),
                            missed_ts,
                        });
                    }
                }
                // The version this read observed. A read of *absence*
                // (`version_ts: None`) is pinned to the newest version
                // committed at or before the reader's snapshot, if any:
                // under snapshot reads, absence means exactly that this
                // version was a deletion tombstone. Usually the engine
                // records the tombstone's timestamp itself; `None` with an
                // earlier writer present happens when version GC removed
                // the dead tombstone chain before the read. Treating such a
                // read as "initial state" (the old behaviour) would add rw
                // edges from the reader *backwards* to every long-committed
                // writer of the key and manufacture cycles in histories
                // that are perfectly serializable. With no writer at or
                // before the snapshot the read really did see the initial
                // state (0). And if that newest version was a *live* value,
                // the read is flagged as lost — a correct engine can never
                // return absence over a visible live version, so pinning
                // silently would launder exactly the purged-too-early bugs
                // this verifier exists to catch. The reader's own version
                // counts only if it was written before the read: a
                // lock-based reader, whose "snapshot" is its commit, may
                // insert the key it found absent, but must see its insert.
                let read_ts = r.version_ts.unwrap_or_else(|| {
                    let own_later = |writer| writer == txn.id && !r.after_own_write;
                    let newest_at_snapshot = item_versions
                        .into_iter()
                        .flatten()
                        .filter(|&&(ts, writer, _)| ts <= txn.begin_ts && !own_later(writer))
                        .max_by_key(|&&(ts, _, _)| ts);
                    match newest_at_snapshot {
                        None => 0,
                        Some(&(ts, _, tombstone)) => {
                            if !tombstone {
                                lost_reads.push(LostRead {
                                    reader: txn.id,
                                    table: r.table,
                                    key: r.key.clone(),
                                    missed_ts: ts,
                                });
                            }
                            ts
                        }
                    }
                });
                // wr: the creator of the version read precedes the reader.
                if read_ts != 0 {
                    if let Some(list) = item_versions {
                        if let Some((_, writer, _)) = list.iter().find(|(ts, _, _)| *ts == read_ts)
                        {
                            if *writer != txn.id {
                                edges.insert(Edge {
                                    from: *writer,
                                    to: txn.id,
                                    kind: EdgeKind::Wr,
                                });
                            }
                        }
                    }
                }
                // rw: the reader precedes the writer of any later version.
                if let Some(list) = item_versions {
                    for (ts, writer, _) in list {
                        if *ts > read_ts && *writer != txn.id {
                            edges.insert(Edge {
                                from: txn.id,
                                to: *writer,
                                kind: EdgeKind::Rw,
                            });
                        }
                    }
                }
            }
        }

        let edge_vec: Vec<Edge> = edges.into_iter().collect();
        let cycle = find_cycle(&edge_vec);
        let pivots = find_pivots(&edge_vec, &by_id);
        MvsgReport {
            edges: edge_vec,
            cycle,
            pivots,
            lost_reads,
            stale_reads,
            dangling_reads,
        }
    }
}

/// Finds a cycle in the edge set (ignoring edge kinds), if any.
fn find_cycle(edges: &[Edge]) -> Option<Vec<TxnId>> {
    let mut adj: HashMap<TxnId, Vec<TxnId>> = HashMap::new();
    let mut nodes: HashSet<TxnId> = HashSet::new();
    for e in edges {
        adj.entry(e.from).or_default().push(e.to);
        nodes.insert(e.from);
        nodes.insert(e.to);
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Gray,
        Black,
    }
    let mut color: HashMap<TxnId, Color> = nodes.iter().map(|n| (*n, Color::White)).collect();
    let mut stack_path: Vec<TxnId> = Vec::new();

    fn dfs(
        node: TxnId,
        adj: &HashMap<TxnId, Vec<TxnId>>,
        color: &mut HashMap<TxnId, Color>,
        path: &mut Vec<TxnId>,
    ) -> Option<Vec<TxnId>> {
        color.insert(node, Color::Gray);
        path.push(node);
        if let Some(succs) = adj.get(&node) {
            for &next in succs {
                match color.get(&next).copied().unwrap_or(Color::White) {
                    Color::Gray => {
                        // Found a cycle: slice the path from `next` onwards.
                        let start = path.iter().position(|n| *n == next).unwrap_or(0);
                        return Some(path[start..].to_vec());
                    }
                    Color::White => {
                        if let Some(cycle) = dfs(next, adj, color, path) {
                            return Some(cycle);
                        }
                    }
                    Color::Black => {}
                }
            }
        }
        path.pop();
        color.insert(node, Color::Black);
        None
    }

    let node_list: Vec<TxnId> = nodes.into_iter().collect();
    for node in node_list {
        if color[&node] == Color::White {
            if let Some(cycle) = dfs(node, &adj, &mut color, &mut stack_path) {
                return Some(cycle);
            }
        }
    }
    None
}

/// Finds pivot transactions: an incoming and an outgoing rw-antidependency,
/// each between transactions that were concurrent (Theorem 2).
fn find_pivots(edges: &[Edge], by_id: &HashMap<TxnId, &CommittedTxn>) -> Vec<TxnId> {
    let concurrent = |a: TxnId, b: TxnId| -> bool {
        match (by_id.get(&a), by_id.get(&b)) {
            (Some(x), Some(y)) => x.begin_ts < y.commit_ts && y.begin_ts < x.commit_ts,
            _ => false,
        }
    };
    let mut has_in: HashSet<TxnId> = HashSet::new();
    let mut has_out: HashSet<TxnId> = HashSet::new();
    for e in edges {
        if e.kind == EdgeKind::Rw && concurrent(e.from, e.to) {
            has_out.insert(e.from);
            has_in.insert(e.to);
        }
    }
    let mut pivots: Vec<TxnId> = has_in.intersection(&has_out).copied().collect();
    pivots.sort();
    pivots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn txn(
        id: u64,
        begin: Timestamp,
        commit: Timestamp,
        reads: Vec<(&[u8], Option<Timestamp>)>,
        writes: Vec<&[u8]>,
    ) -> CommittedTxn {
        CommittedTxn {
            id: TxnId(id),
            begin_ts: begin,
            commit_ts: commit,
            reads: reads
                .into_iter()
                .map(|(k, ts)| ReadRecord {
                    table: TableId(1),
                    key: k.to_vec(),
                    version_ts: ts,
                    after_own_write: false,
                })
                .collect(),
            writes: writes
                .into_iter()
                .map(|k| WriteRecordEntry {
                    table: TableId(1),
                    key: k.to_vec(),
                    tombstone: false,
                })
                .collect(),
        }
    }

    /// Marks every write of `txn` as a deletion tombstone.
    fn as_delete(mut txn: CommittedTxn) -> CommittedTxn {
        for w in &mut txn.writes {
            w.tombstone = true;
        }
        txn
    }

    #[test]
    fn serial_history_is_serializable() {
        // T1 writes x at 10; T2 reads that version and writes y at 20.
        let history = vec![
            txn(1, 5, 10, vec![], vec![b"x"]),
            txn(2, 15, 20, vec![(b"x", Some(10))], vec![b"y"]),
        ];
        let report = MvsgReport::build(&history);
        assert!(report.is_serializable());
        assert!(report.pivots.is_empty());
        assert!(report.edges.contains(&Edge {
            from: TxnId(1),
            to: TxnId(2),
            kind: EdgeKind::Wr
        }));
    }

    #[test]
    fn write_skew_produces_cycle_and_pivots() {
        // Classic write skew (Example 2): both read x and y from the initial
        // state (version_ts None ≈ initial), T1 writes x, T2 writes y, both
        // concurrent.
        let history = vec![
            txn(1, 5, 20, vec![(b"x", None), (b"y", None)], vec![b"x"]),
            txn(2, 6, 21, vec![(b"x", None), (b"y", None)], vec![b"y"]),
        ];
        let report = MvsgReport::build(&history);
        assert!(!report.is_serializable());
        // Both transactions have an incoming and an outgoing rw edge.
        assert_eq!(report.pivots, vec![TxnId(1), TxnId(2)]);
    }

    #[test]
    fn rw_edge_requires_later_version() {
        // Reader observed the latest version: no antidependency.
        let history = vec![
            txn(1, 1, 10, vec![], vec![b"x"]),
            txn(2, 12, 15, vec![(b"x", Some(10))], vec![]),
        ];
        let report = MvsgReport::build(&history);
        assert!(report.edges.iter().all(|e| e.kind != EdgeKind::Rw));
        assert!(report.is_serializable());
    }

    #[test]
    fn read_only_anomaly_graph_has_cycle() {
        // Example 3 / Fig. 2.3(a): Tpivot r(y) w(x); Tout w(y) w(z);
        // Tin r(x) r(z). Tout commits first; Tin reads z from Tout but x
        // from the initial state.
        let history = vec![
            // Tout: writes y and z, commits at 10.
            txn(3, 1, 10, vec![], vec![b"y", b"z"]),
            // Tpivot: read y from initial state (None), wrote x, commit 20.
            txn(1, 2, 20, vec![(b"y", None)], vec![b"x"]),
            // Tin: read x initial (None), read z from Tout (10), commit 15.
            txn(2, 11, 15, vec![(b"x", None), (b"z", Some(10))], vec![]),
        ];
        let report = MvsgReport::build(&history);
        assert!(!report.is_serializable());
        // The pivot (T1 here) must be flagged.
        assert!(report.pivots.contains(&TxnId(1)));
    }

    #[test]
    fn read_of_absence_after_purged_tombstone_orders_after_the_deleter() {
        // T1 writes k at 10, T2 deletes k at 20 (version GC later removed
        // the dead tombstone chain), T3 with snapshot 25 reads k as absent —
        // recorded as `version_ts: None` because no version is left to
        // observe. T3 must order AFTER the deleter (wr), with no rw edge
        // back to T1 or T2: the old initial-state treatment produced
        // exactly those backward edges and false cycles under GC churn.
        let history = vec![
            txn(1, 1, 10, vec![], vec![b"k"]),
            as_delete(txn(2, 11, 20, vec![], vec![b"k"])),
            txn(3, 25, 30, vec![(b"k", None)], vec![]),
        ];
        let report = MvsgReport::build(&history);
        assert!(report.is_serializable());
        assert!(report.edges.contains(&Edge {
            from: TxnId(2),
            to: TxnId(3),
            kind: EdgeKind::Wr
        }));
        assert!(
            report
                .edges
                .iter()
                .all(|e| !(e.from == TxnId(3) && e.kind == EdgeKind::Rw)),
            "a read of post-delete absence must not antidepend on earlier writers"
        );
        // But an insert the reader's snapshot could not see still gets the
        // forward rw edge.
        let history = vec![
            as_delete(txn(2, 11, 20, vec![], vec![b"k"])),
            txn(3, 25, 30, vec![(b"k", None)], vec![]),
            txn(4, 26, 40, vec![], vec![b"k"]),
        ];
        let report = MvsgReport::build(&history);
        assert!(report.edges.contains(&Edge {
            from: TxnId(3),
            to: TxnId(4),
            kind: EdgeKind::Rw
        }));
    }

    #[test]
    fn read_of_absence_over_a_live_version_is_a_lost_read() {
        // T1 commits a live value of k at 10; T3 with snapshot 25 reads k
        // as absent. No correct engine can produce this (the newest version
        // at the snapshot is live and must be visible) — it is the
        // signature of a purged-too-early chain, and the verifier must fail
        // the history rather than pin the absence and launder the bug.
        let history = vec![
            txn(1, 1, 10, vec![], vec![b"k"]),
            txn(3, 25, 30, vec![(b"k", None)], vec![]),
        ];
        let report = MvsgReport::build(&history);
        assert_eq!(
            report.lost_reads,
            vec![LostRead {
                reader: TxnId(3),
                table: TableId(1),
                key: b"k".to_vec(),
                missed_ts: 10,
            }]
        );
        assert!(
            !report.is_serializable(),
            "a lost read must fail the oracle"
        );

        // A put-then-delete inside one transaction counts as a delete (the
        // last write decides): absence over it is consistent.
        let mut deleter = txn(2, 11, 20, vec![], vec![b"k", b"k"]);
        deleter.writes[1].tombstone = true;
        let history = vec![
            txn(1, 1, 10, vec![], vec![b"k"]),
            deleter,
            txn(3, 25, 30, vec![(b"k", None)], vec![]),
        ];
        let report = MvsgReport::build(&history);
        assert!(report.lost_reads.is_empty());
        assert!(report.is_serializable());

        // An S2PL reader, recorded with its commit as its snapshot, finds k
        // absent and inserts it: it did not miss its own version.
        let mut s2pl = txn(5, 50, 50, vec![(b"k", None)], vec![b"k"]);
        assert!(MvsgReport::build(&[s2pl.clone()]).is_serializable());
        // Finding it absent after the insert is a read-your-own-writes bug.
        s2pl.reads[0].after_own_write = true;
        let report = MvsgReport::build(&[s2pl]);
        assert_eq!(report.lost_reads.len(), 1, "{:?}", report.lost_reads);
        assert_eq!(report.lost_reads[0].missed_ts, 50);
    }

    #[test]
    fn a_read_of_a_version_nobody_committed_is_dangling() {
        // T2 reads k at 15, but the only committed writer of k committed at
        // 10: the value it saw was uncommitted or rolled back.
        let history = vec![
            txn(1, 1, 10, vec![], vec![b"k"]),
            txn(2, 20, 30, vec![(b"k", Some(15))], vec![]),
        ];
        let report = MvsgReport::build(&history);
        assert_eq!(
            report.dangling_reads,
            vec![DanglingRead {
                reader: TxnId(2),
                table: TableId(1),
                key: b"k".to_vec(),
                version_ts: 15,
            }]
        );
        assert!(report.cycle.is_none() && report.lost_reads.is_empty());
        assert!(
            !report.is_serializable(),
            "a dangling read fails the oracle"
        );
        // A version of another key at that timestamp does not make it real.
        let history = vec![
            txn(1, 1, 10, vec![], vec![b"k"]),
            txn(3, 11, 15, vec![], vec![b"j"]),
            txn(2, 20, 30, vec![(b"k", Some(15))], vec![]),
        ];
        assert_eq!(MvsgReport::build(&history).dangling_reads.len(), 1);
        // The version read committed: nothing to report.
        let history = vec![
            txn(1, 1, 15, vec![], vec![b"k"]),
            txn(2, 20, 30, vec![(b"k", Some(15))], vec![]),
        ];
        assert!(MvsgReport::build(&history).is_serializable());
    }

    #[test]
    fn a_read_that_misses_a_commit_its_snapshot_covers_is_stale() {
        // T1 writes k at 10 and T2 at 20; T3's snapshot at 25 covers both
        // but it read T1's version. Acyclic: only this check sees it.
        let history = vec![
            txn(1, 1, 10, vec![], vec![b"k"]),
            txn(2, 11, 20, vec![], vec![b"k"]),
            txn(3, 25, 30, vec![(b"k", Some(10))], vec![]),
        ];
        let report = MvsgReport::build(&history);
        assert!(report.cycle.is_none() && report.dangling_reads.is_empty());
        assert_eq!(
            report.stale_reads,
            vec![LostRead {
                reader: TxnId(3),
                table: TableId(1),
                key: b"k".to_vec(),
                missed_ts: 20,
            }]
        );
        assert!(!report.is_serializable(), "a stale read fails the oracle");
        // A tombstone the snapshot covers is missed just the same.
        let history = vec![
            txn(1, 1, 10, vec![], vec![b"k"]),
            as_delete(txn(2, 11, 20, vec![], vec![b"k"])),
            txn(3, 25, 30, vec![(b"k", Some(10))], vec![]),
        ];
        assert_eq!(MvsgReport::build(&history).stale_reads.len(), 1);
        // A commit after the snapshot is not missed: that is an rw edge.
        let history = vec![
            txn(1, 1, 10, vec![], vec![b"k"]),
            txn(3, 15, 30, vec![(b"k", Some(10))], vec![]),
            txn(2, 11, 20, vec![], vec![b"k"]),
        ];
        assert!(MvsgReport::build(&history).is_serializable());
        // A lock-based reader, recorded with its commit as its snapshot,
        // that read k and then wrote it did not miss its own version.
        let s2pl = txn(5, 50, 50, vec![(b"k", Some(10))], vec![b"k"]);
        let history = vec![txn(1, 1, 10, vec![], vec![b"k"]), s2pl];
        assert!(MvsgReport::build(&history).is_serializable());
    }

    #[test]
    fn ww_edges_follow_version_order() {
        let history = vec![
            txn(1, 1, 10, vec![], vec![b"x"]),
            txn(2, 11, 20, vec![], vec![b"x"]),
            txn(3, 21, 30, vec![], vec![b"x"]),
        ];
        let report = MvsgReport::build(&history);
        assert!(report.is_serializable());
        assert!(report.edges.contains(&Edge {
            from: TxnId(1),
            to: TxnId(2),
            kind: EdgeKind::Ww
        }));
        assert!(report.edges.contains(&Edge {
            from: TxnId(2),
            to: TxnId(3),
            kind: EdgeKind::Ww
        }));
    }

    #[test]
    fn repeated_writes_of_one_key_by_one_txn_do_not_create_self_edges() {
        // A transaction that overwrites the same item twice (and a second
        // one that does so later) must not produce self-loops.
        let mut t1 = txn(1, 1, 10, vec![], vec![b"x"]);
        t1.writes.push(WriteRecordEntry {
            table: TableId(1),
            key: b"x".to_vec(),
            tombstone: false,
        });
        let history = vec![t1, txn(2, 11, 20, vec![], vec![b"x"])];
        let report = MvsgReport::build(&history);
        assert!(report.edges.iter().all(|e| e.from != e.to));
        assert!(report.is_serializable());
    }

    #[test]
    fn recorder_accumulates() {
        let rec = HistoryRecorder::new();
        assert!(rec.is_empty());
        rec.record(txn(1, 1, 2, vec![], vec![b"a"]));
        rec.record(txn(2, 3, 4, vec![(b"a", Some(2))], vec![]));
        assert_eq!(rec.len(), 2);
        let report = rec.analyze();
        assert!(report.is_serializable());
    }
}
