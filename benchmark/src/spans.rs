//! Spans recorded by the benchmark around its calls into the system.
//!
//! Every sampled transaction is a tree: one `txn` root (first attempt to
//! commit acknowledgement) whose children are the public calls made on its
//! behalf, retries included. A layer's self time is its span's duration minus
//! the part of that interval its children cover, so for each transaction
//! `Σ child time + txn self time == txn time` by construction. Spans live in
//! pre-allocated per-thread buffers and are written out after the run.

use std::collections::HashMap;
use std::io::Write;
use std::sync::OnceLock;
use std::time::Instant;

use crate::stats::{percentile_or_max, ratio};

/// Nanoseconds since the first call in this process; every span and latency
/// in a run shares this clock.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// What a span timed. `Txn` is the root; the rest are single public calls.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum SpanKind {
    Txn,
    Begin,
    Get,
    Put,
    Scan,
    Commit,
    Rollback,
    Purge,
}

impl SpanKind {
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Txn => "txn",
            SpanKind::Begin => "begin",
            SpanKind::Get => "get",
            SpanKind::Put => "put",
            SpanKind::Scan => "scan",
            SpanKind::Commit => "commit",
            SpanKind::Rollback => "rollback",
            SpanKind::Purge => "purge",
        }
    }
}

/// One recorded interval. `parent == 0` marks a root; spans of one
/// transaction share `txn`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub kind: SpanKind,
    /// `core` for calls on the embedded `Database`, `client` for round trips
    /// through the TCP client.
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub id: u64,
    pub parent: u64,
    pub txn: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// `txn` for the root, `<layer>.<call>` for the rest.
    pub fn name(&self) -> String {
        match self.kind {
            SpanKind::Txn => "txn".to_string(),
            kind => format!("{}.{}", self.layer, kind.label()),
        }
    }
}

/// Times a call when the transaction is sampled, and is free when it is not.
pub trait Recorder {
    fn span<R>(&mut self, kind: SpanKind, layer: &'static str, call: impl FnOnce() -> R) -> R;
}

/// The recorder of every unsampled transaction.
pub struct NoSpans;

impl Recorder for NoSpans {
    #[inline(always)]
    fn span<R>(&mut self, _: SpanKind, _: &'static str, call: impl FnOnce() -> R) -> R {
        call()
    }
}

/// A transaction with retries can record a few hundred spans; sampling stops
/// while fewer slots than this remain, so a push never reallocates inside the
/// measured window.
const HEADROOM: usize = 512;

/// One thread's span buffer.
pub struct SpanBuf {
    spans: Vec<Span>,
    /// High bits of every id this buffer hands out, so ids are unique across
    /// threads.
    id_base: u64,
    next: u64,
    /// Id of the open `txn` root (0 when none): parent of every span pushed.
    open_root: u64,
    /// Transactions that should have been sampled but found the buffer full.
    pub skipped_txns: u64,
}

impl SpanBuf {
    pub fn with_capacity(thread: usize, capacity: usize) -> SpanBuf {
        SpanBuf {
            spans: Vec::with_capacity(capacity + HEADROOM),
            id_base: (thread as u64 + 1) << 40,
            next: 0,
            open_root: 0,
            skipped_txns: 0,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn next_id(&mut self) -> u64 {
        self.next += 1;
        self.id_base | self.next
    }

    /// Opens a `txn` root; spans pushed until [`SpanBuf::close_txn`] become
    /// its children. Returns false (and records nothing) when the buffer is
    /// full.
    pub fn open_txn(&mut self) -> bool {
        if self.spans.len() + HEADROOM > self.spans.capacity() {
            self.skipped_txns += 1;
            return false;
        }
        self.open_root = self.next_id();
        true
    }

    pub fn close_txn(&mut self, start_ns: u64, end_ns: u64) {
        let id = std::mem::take(&mut self.open_root);
        debug_assert!(id != 0, "close_txn without open_txn");
        self.spans.push(Span {
            kind: SpanKind::Txn,
            layer: "",
            start_ns,
            end_ns,
            id,
            parent: 0,
            txn: id,
        });
    }

    fn push(&mut self, kind: SpanKind, layer: &'static str, start_ns: u64, end_ns: u64) {
        if self.spans.len() == self.spans.capacity() {
            return;
        }
        let id = self.next_id();
        let txn = if self.open_root == 0 {
            id
        } else {
            self.open_root
        };
        self.spans.push(Span {
            kind,
            layer,
            start_ns,
            end_ns,
            id,
            parent: self.open_root,
            txn,
        });
    }
}

impl Recorder for SpanBuf {
    fn span<R>(&mut self, kind: SpanKind, layer: &'static str, call: impl FnOnce() -> R) -> R {
        let start = now_ns();
        let result = call();
        self.push(kind, layer, start, now_ns());
        result
    }
}

/// Self time of every span: its duration minus the part of its interval that
/// its direct children cover (overlapping children are not counted twice, and
/// a child is clipped to its parent).
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(cursor), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        cursor = end;
                    }
                }
            }
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// What the per-layer span metrics are computed from.
#[derive(Default, Debug)]
pub struct SpanSummary {
    /// Sampled transactions.
    pub txns: u64,
    /// Summed duration of the `txn` roots.
    pub txn_total_ns: u64,
    /// Summed self time of the `txn` roots.
    pub txn_self_ns: u64,
    /// Ascending durations of every call span, by kind.
    pub calls: HashMap<SpanKind, Vec<u32>>,
}

impl SpanSummary {
    pub fn of(bufs: &[SpanBuf]) -> SpanSummary {
        let mut summary = SpanSummary::default();
        for buf in bufs {
            let selfs = self_times(buf.spans());
            for s in buf.spans() {
                if s.kind == SpanKind::Txn {
                    summary.txns += 1;
                    summary.txn_total_ns += s.duration_ns();
                    summary.txn_self_ns += selfs[&s.id];
                } else {
                    let d = u32::try_from(s.duration_ns()).unwrap_or(u32::MAX);
                    summary.calls.entry(s.kind).or_default().push(d);
                }
            }
        }
        for durations in summary.calls.values_mut() {
            durations.sort_unstable();
        }
        summary
    }

    fn durations(&self, kind: SpanKind) -> &[u32] {
        self.calls.get(&kind).map_or(&[], Vec::as_slice)
    }

    pub fn p50_ns(&self, kind: SpanKind) -> f64 {
        f64::from(percentile_or_max(self.durations(kind), 0.5))
    }

    pub fn p99_ns(&self, kind: SpanKind) -> f64 {
        f64::from(percentile_or_max(self.durations(kind), 0.99))
    }

    /// Summed time of `kind` as a share of summed `txn` time.
    pub fn share(&self, kind: SpanKind) -> f64 {
        let total: u64 = self.durations(kind).iter().map(|&d| u64::from(d)).sum();
        ratio(total as f64, self.txn_total_ns as f64)
    }

    pub fn txn_self_share(&self) -> f64 {
        ratio(self.txn_self_ns as f64, self.txn_total_ns as f64)
    }
}

/// Writes one JSON object per span: `name`, `start_ns`, `end_ns`, `span`,
/// `parent` (null for a root) and `txn`.
pub fn write_jsonl(bufs: &[SpanBuf], out: &mut impl Write) -> std::io::Result<()> {
    for s in bufs.iter().flat_map(|b| b.spans()) {
        let parent = match s.parent {
            0 => "null".to_string(),
            p => p.to_string(),
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"span\":{},\"parent\":{},\"txn\":{}}}",
            s.name(),
            s.start_ns,
            s.end_ns,
            s.id,
            parent,
            s.txn
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            kind,
            layer: "core",
            start_ns,
            end_ns,
            id,
            parent,
            txn: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // txn [0, 100): begin [5, 15), get [20, 50) with a nested span
        // [25, 30), commit [60, 90). Children cover 10 + 30 + 30 = 70.
        let tree = [
            span(SpanKind::Txn, 1, 0, 0, 100),
            span(SpanKind::Begin, 2, 1, 5, 15),
            span(SpanKind::Get, 3, 1, 20, 50),
            span(SpanKind::Put, 4, 3, 25, 30),
            span(SpanKind::Commit, 5, 1, 60, 90),
        ];
        let selfs = self_times(&tree);
        assert_eq!(selfs[&1], 30);
        assert_eq!(selfs[&2], 10);
        assert_eq!(
            selfs[&3], 25,
            "the grandchild is charged to its parent only"
        );
        assert_eq!(selfs[&4], 5);
        assert_eq!(selfs[&5], 30);
        // Per level, children + self == parent.
        assert_eq!(selfs[&1] + 10 + 30 + 30, 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let tree = [
            span(SpanKind::Txn, 1, 0, 10, 50),
            span(SpanKind::Get, 2, 1, 10, 30),
            span(SpanKind::Get, 3, 1, 20, 40),
            span(SpanKind::Get, 4, 1, 45, 70),
        ];
        // Cover within [10, 50): [10, 40) and [45, 50) = 35.
        assert_eq!(self_times(&tree)[&1], 5);
    }

    #[test]
    fn buffer_links_children_to_the_open_root() {
        let mut buf = SpanBuf::with_capacity(0, 16);
        assert!(buf.open_txn());
        buf.span(SpanKind::Begin, "core", || ());
        buf.span(SpanKind::Commit, "core", || ());
        buf.close_txn(0, now_ns());
        buf.span(SpanKind::Purge, "core", || ());
        let spans = buf.spans();
        assert_eq!(spans.len(), 4);
        let root = spans[2];
        assert_eq!((root.kind, root.parent), (SpanKind::Txn, 0));
        assert!(spans[..2]
            .iter()
            .all(|s| s.parent == root.id && s.txn == root.id));
        assert_eq!(spans[3].parent, 0, "purge runs between transactions");
        assert_eq!(spans[1].name(), "core.commit");

        let summary = SpanSummary::of(&[buf]);
        assert_eq!(summary.txns, 1);
        let child_ns: u64 = [SpanKind::Begin, SpanKind::Commit]
            .iter()
            .flat_map(|k| summary.durations(*k))
            .map(|&d| u64::from(d))
            .sum();
        assert_eq!(child_ns + summary.txn_self_ns, summary.txn_total_ns);
    }

    #[test]
    fn full_buffer_skips_sampling_instead_of_growing() {
        let mut buf = SpanBuf::with_capacity(0, 0);
        let capacity = buf.spans.capacity();
        for _ in 0..capacity {
            buf.span(SpanKind::Get, "core", || ());
        }
        assert!(!buf.open_txn());
        assert_eq!(buf.skipped_txns, 1);
        buf.span(SpanKind::Get, "core", || ());
        assert_eq!(buf.spans.capacity(), capacity);
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let mut buf = SpanBuf::with_capacity(2, 16);
        buf.open_txn();
        buf.span(SpanKind::Get, "client", || ());
        buf.close_txn(1, 2);
        let mut out = Vec::new();
        write_jsonl(&[buf], &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = crate::json::Json::parse(lines[0]).unwrap();
        assert_eq!(
            child.get("name").and_then(|n| n.as_str()),
            Some("client.get")
        );
        let root = crate::json::Json::parse(lines[1]).unwrap();
        assert_eq!(root.get("parent"), Some(&crate::json::Json::Null));
        assert_eq!(child.get("parent"), root.get("span"));
    }
}
