//! Ordered secondary indexes over the version-chained tables.
//!
//! # Protocol: transactional index maintenance
//!
//! A secondary index is a refcounted ordered map from *entry keys* to the
//! rows that claim them. The entry key is a memcomparable composite of the
//! extracted index key and the row's primary key (see [`encode_entry`]), so
//! one index key can be claimed by many rows (non-unique indexes) and a
//! range scan over an index-key interval is one contiguous entry range.
//!
//! Maintenance is tied to *chain membership*, not to commit state:
//!
//! * [`crate::Table::install`] adds one entry reference for the new
//!   version's extracted key (tombstones extract nothing and add nothing);
//! * [`crate::Table::unlink_version`] (abort path) releases the reference —
//!   but only when the version was actually removed from the chain;
//! * version GC ([`crate::Table::purge_old_versions`], and a writer pruning
//!   a long chain inside `install`) releases one reference per version it
//!   physically drops.
//!
//! The invariant is exact: an entry's refcount equals the number of
//! *resident* chain versions of its primary key whose payload extracts to
//! the entry's index key. Superseded entries therefore linger until GC
//! reclaims the superseded row versions — which is precisely the safety
//! property predicate reads need: as long as any live snapshot can see a
//! row version, the entry that leads a scan to it is still present. Scans
//! compensate for the lingering side by *re-extracting* from the row
//! version actually visible to their snapshot and filtering entries that no
//! longer match; uniqueness checks likewise consult the newest committed
//! row version rather than trusting entry presence.
//!
//! Because entries carry no committed/uncommitted state of their own, crash
//! recovery needs no separate index log: replaying version installs (and
//! create-index backfill over already-loaded chains) rebuilds exactly the
//! refcounts the invariant demands.
//!
//! # Range registrations in entry space
//!
//! An index scan is a predicate over *entries*, and its phantoms are entries
//! that appear between its bounds. The index therefore owns a range list of
//! its own ([`crate::range`]), in entry space: a Serializable-SI or S2PL
//! scan registers [`entry_range`] of its bounds there *before* it lists
//! entries ([`Index::register_range`]), and every install that adds an entry
//! reference — there is one way in, [`Index::add_ref_reporting`], called from
//! the install's shard critical section — looks for the ranges that contain
//! the entry under the same write lock of the entry map that adds it: SIREAD
//! ranges always, `Shared` ranges only when the entry is new (refcount
//! 0 → 1). Scan and install meet on that lock: a listing that follows the add
//! has the entry (and the scan then reads the row, whose chain already holds
//! the version, or locks it at S2PL), one that precedes it belongs to a scan
//! that had registered before. An entry that was already there was listed,
//! so an S2PL scanner holds, or will take, the SHARED lock of its row; a
//! Serializable-SI scan covers the rows it does list the ordinary way, by the
//! point SIREAD its read leaves on the row's chain, so a rename away or a
//! delete is found there. The backfill of a new index ([`Index::add_ref`])
//! adds references for versions that were installed before the index existed
//! and has nobody to report to.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use parking_lot::RwLock;

use ssi_common::{TableId, TxnId};

use crate::range::{RangeHandle, RangeMode, RangeReaders};
use crate::table::RowReaders;

/// Typed field of a row-value layout, in [`ssi_common::encoding::ValueWriter`]
/// order. The index only needs enough type information to *skip* fields and
/// to re-encode the extracted one order-preservingly.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FieldKind {
    /// 4-byte little-endian unsigned.
    U32,
    /// 8-byte little-endian unsigned.
    U64,
    /// 8-byte little-endian signed.
    I64,
    /// 8-byte little-endian float.
    F64,
    /// `u32` little-endian length prefix + raw bytes.
    Str,
}

impl FieldKind {
    fn tag(self) -> u8 {
        match self {
            FieldKind::U32 => 0,
            FieldKind::U64 => 1,
            FieldKind::I64 => 2,
            FieldKind::F64 => 3,
            FieldKind::Str => 4,
        }
    }

    fn from_tag(tag: u8) -> Option<FieldKind> {
        Some(match tag {
            0 => FieldKind::U32,
            1 => FieldKind::U64,
            2 => FieldKind::I64,
            3 => FieldKind::F64,
            4 => FieldKind::Str,
            _ => return None,
        })
    }
}

/// One component of an extracted index key.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IndexKeyPart {
    /// A byte range `[start, end)` of the primary key, copied verbatim
    /// (primary keys are already order-preserving composites).
    PrimaryKeySlice(u32, u32),
    /// The value field at this ordinal of the layout, re-encoded
    /// order-preservingly (big-endian ints, sign-biased `i64`/`f64`,
    /// terminator-escaped strings).
    ValueField(u32),
}

/// How to derive an index key from a `(primary key, value)` pair.
#[derive(Clone, PartialEq, Debug)]
pub struct IndexKeySpec {
    /// Field layout of the indexed table's values.
    pub layout: Vec<FieldKind>,
    /// Components of the index key, concatenated in order.
    pub parts: Vec<IndexKeyPart>,
}

impl IndexKeySpec {
    /// Extracts the order-preserving index key of a row, or `None` when the
    /// row does not conform to the layout (such rows are simply not
    /// indexed; recovery must tolerate arbitrary bytes).
    pub fn extract(&self, pk: &[u8], value: &[u8]) -> Option<Vec<u8>> {
        let mut out = Vec::new();
        for part in &self.parts {
            match *part {
                IndexKeyPart::PrimaryKeySlice(start, end) => {
                    let (start, end) = (start as usize, end as usize);
                    if start > end || end > pk.len() {
                        return None;
                    }
                    out.extend_from_slice(&pk[start..end]);
                }
                IndexKeyPart::ValueField(ordinal) => {
                    let (kind, bytes) = self.field(value, ordinal as usize)?;
                    match kind {
                        FieldKind::U32 => {
                            let v = u32::from_le_bytes(bytes.try_into().ok()?);
                            out.extend_from_slice(&v.to_be_bytes());
                        }
                        FieldKind::U64 => {
                            let v = u64::from_le_bytes(bytes.try_into().ok()?);
                            out.extend_from_slice(&v.to_be_bytes());
                        }
                        FieldKind::I64 => {
                            let v = i64::from_le_bytes(bytes.try_into().ok()?);
                            out.extend_from_slice(&((v as u64) ^ (1 << 63)).to_be_bytes());
                        }
                        FieldKind::F64 => {
                            // Standard total-order trick: flip all bits of
                            // negatives, just the sign bit of positives.
                            let raw = u64::from_le_bytes(bytes.try_into().ok()?);
                            let biased = if raw & (1 << 63) != 0 {
                                !raw
                            } else {
                                raw ^ (1 << 63)
                            };
                            out.extend_from_slice(&biased.to_be_bytes());
                        }
                        FieldKind::Str => {
                            // Same escape scheme as `KeyBuilder::str`.
                            for &b in bytes {
                                if b == 0 {
                                    out.extend_from_slice(&[0x00, 0x01]);
                                } else {
                                    out.push(b);
                                }
                            }
                            out.extend_from_slice(&[0x00, 0x00]);
                        }
                    }
                }
            }
        }
        Some(out)
    }

    /// Locates field `ordinal` in an encoded value: walks the layout with
    /// checked reads, returning the field's kind and raw (little-endian)
    /// bytes.
    fn field<'v>(&self, value: &'v [u8], ordinal: usize) -> Option<(FieldKind, &'v [u8])> {
        let mut pos = 0usize;
        for (i, &kind) in self.layout.iter().enumerate() {
            let len = match kind {
                FieldKind::U32 => 4,
                FieldKind::U64 | FieldKind::I64 | FieldKind::F64 => 8,
                FieldKind::Str => {
                    let pfx = value.get(pos..pos + 4)?;
                    pos += 4;
                    u32::from_le_bytes(pfx.try_into().ok()?) as usize
                }
            };
            let bytes = value.get(pos..pos + len)?;
            if i == ordinal {
                return Some((kind, bytes));
            }
            pos += len;
        }
        None
    }

    /// Serializes the spec to opaque bytes (stored in the WAL create-index
    /// record and shipped over the wire).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.layout.len() + self.parts.len() * 9);
        out.extend_from_slice(&(self.layout.len() as u32).to_le_bytes());
        for kind in &self.layout {
            out.push(kind.tag());
        }
        out.extend_from_slice(&(self.parts.len() as u32).to_le_bytes());
        for part in &self.parts {
            match *part {
                IndexKeyPart::PrimaryKeySlice(start, end) => {
                    out.push(0);
                    out.extend_from_slice(&start.to_le_bytes());
                    out.extend_from_slice(&end.to_le_bytes());
                }
                IndexKeyPart::ValueField(ordinal) => {
                    out.push(1);
                    out.extend_from_slice(&ordinal.to_le_bytes());
                }
            }
        }
        out
    }

    /// Inverse of [`IndexKeySpec::encode`].
    pub fn decode(bytes: &[u8]) -> Option<IndexKeySpec> {
        let mut pos = 0usize;
        let u32_at = |pos: &mut usize| -> Option<u32> {
            let b = bytes.get(*pos..*pos + 4)?;
            *pos += 4;
            Some(u32::from_le_bytes(b.try_into().ok()?))
        };
        let n_layout = u32_at(&mut pos)? as usize;
        let mut layout = Vec::with_capacity(n_layout);
        for _ in 0..n_layout {
            layout.push(FieldKind::from_tag(*bytes.get(pos)?)?);
            pos += 1;
        }
        let n_parts = u32_at(&mut pos)? as usize;
        let mut parts = Vec::with_capacity(n_parts);
        for _ in 0..n_parts {
            let tag = *bytes.get(pos)?;
            pos += 1;
            parts.push(match tag {
                0 => {
                    let start = u32_at(&mut pos)?;
                    let end = u32_at(&mut pos)?;
                    IndexKeyPart::PrimaryKeySlice(start, end)
                }
                1 => IndexKeyPart::ValueField(u32_at(&mut pos)?),
                _ => return None,
            });
        }
        if pos != bytes.len() {
            return None;
        }
        Some(IndexKeySpec { layout, parts })
    }
}

/// Encodes an index entry key: the escaped index key, a terminator, then the
/// raw primary key. `0x00` bytes of the index key are escaped as
/// `0x00 0xFF`, the terminator is `0x00 0x00`, so (a) distinct
/// `(index_key, pk)` pairs map to distinct entry keys, and (b) entry order
/// equals `(index_key, pk)` lexicographic order — which is what makes
/// [`entry_range`] a single contiguous `BTreeMap` range.
pub fn encode_entry(index_key: &[u8], pk: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(index_key.len() + pk.len() + 2);
    escape_into(index_key, &mut out);
    out.extend_from_slice(&[0x00, 0x00]);
    out.extend_from_slice(pk);
    out
}

fn escape_into(index_key: &[u8], out: &mut Vec<u8>) {
    for &b in index_key {
        if b == 0 {
            out.extend_from_slice(&[0x00, 0xFF]);
        } else {
            out.push(b);
        }
    }
}

/// Decodes an entry key back into `(index_key, pk)`; `None` if malformed.
pub fn decode_entry(entry: &[u8]) -> Option<(Vec<u8>, Vec<u8>)> {
    let mut index_key = Vec::new();
    let mut i = 0usize;
    while i < entry.len() {
        let b = entry[i];
        if b != 0 {
            index_key.push(b);
            i += 1;
            continue;
        }
        match entry.get(i + 1)? {
            0xFF => {
                index_key.push(0);
                i += 2;
            }
            0x00 => return Some((index_key, entry[i + 2..].to_vec())),
            _ => return None,
        }
    }
    None
}

/// Maps index-*key* bounds onto entry-space bounds, so that the resulting
/// entry range contains exactly the entries whose index key falls in the
/// requested interval (for every primary key).
pub fn entry_range(lower: Bound<&[u8]>, upper: Bound<&[u8]>) -> (Bound<Vec<u8>>, Bound<Vec<u8>>) {
    let with_sep = |key: &[u8], sep: [u8; 2]| {
        let mut out = Vec::with_capacity(key.len() + 2);
        escape_into(key, &mut out);
        out.extend_from_slice(&sep);
        out
    };
    let lo = match lower {
        // First possible entry of `a` is esc(a) ++ 00 00 ++ "" (empty pk).
        Bound::Included(a) => Bound::Included(with_sep(a, [0x00, 0x00])),
        // Every entry of `a` is below esc(a) ++ 00 FF; every entry of a
        // strictly greater key is at or above it (continuations after
        // esc(a) sort terminator 00 00 < escape 00 FF < literal 01..FF).
        Bound::Excluded(a) => Bound::Included(with_sep(a, [0x00, 0xFF])),
        Bound::Unbounded => Bound::Unbounded,
    };
    let hi = match upper {
        Bound::Included(b) => Bound::Excluded(with_sep(b, [0x00, 0xFF])),
        Bound::Excluded(b) => Bound::Excluded(with_sep(b, [0x00, 0x00])),
        Bound::Unbounded => Bound::Unbounded,
    };
    (lo, hi)
}

/// Adds one reference to `entry`; true if that created it.
fn add_ref_to(entries: &mut BTreeMap<Arc<[u8]>, usize>, entry: &[u8]) -> bool {
    if let Some(refs) = entries.get_mut(entry) {
        *refs += 1;
        return false;
    }
    entries.insert(Arc::from(entry), 1);
    true
}

/// Static definition of a secondary index.
#[derive(Clone, Debug)]
pub struct IndexDef {
    /// Index id, drawn from the same id space as table ids so lock keys and
    /// history records address index space without a new key type.
    pub id: TableId,
    /// Index name (shares the catalog's name namespace with tables).
    pub name: String,
    /// The indexed table.
    pub table: TableId,
    /// Unique indexes additionally enforce at most one live row per index
    /// key (checked by the engine under an index-point lock).
    pub unique: bool,
    /// Key-extraction recipe.
    pub spec: IndexKeySpec,
}

/// A secondary index: definition plus the refcounted entry map (see the
/// module docs for the maintenance invariant).
pub struct Index {
    def: IndexDef,
    entries: RwLock<BTreeMap<Arc<[u8]>, usize>>,
    /// The live Serializable-SI and S2PL scans of this index, in entry space.
    ranges: Arc<RangeReaders>,
}

impl Index {
    /// Creates an empty index.
    pub fn new(def: IndexDef) -> Self {
        Index {
            def,
            entries: RwLock::new(BTreeMap::new()),
            ranges: Arc::default(),
        }
    }

    /// Index id (same id space as tables).
    pub fn id(&self) -> TableId {
        self.def.id
    }

    /// Index name.
    pub fn name(&self) -> &str {
        &self.def.name
    }

    /// Id of the indexed table.
    pub fn table_id(&self) -> TableId {
        self.def.table
    }

    /// True for unique indexes.
    pub fn unique(&self) -> bool {
        self.def.unique
    }

    /// The key-extraction spec.
    pub fn spec(&self) -> &IndexKeySpec {
        &self.def.spec
    }

    /// Extracts the entry key a row of this table claims, or `None` for
    /// unindexable rows.
    pub fn entry_of(&self, pk: &[u8], value: &[u8]) -> Option<Vec<u8>> {
        self.def
            .spec
            .extract(pk, value)
            .map(|ik| encode_entry(&ik, pk))
    }

    /// Adds one resident-version reference to an entry, creating it at
    /// refcount 1 if absent.
    pub fn add_ref(&self, entry: &[u8]) {
        add_ref_to(&mut self.entries.write(), entry);
    }

    /// [`Index::add_ref`] for a version `writer` has just installed: under
    /// the same write lock of the entry map, appends to `readers` the holders
    /// of every live SIREAD range of this index that contains the entry and,
    /// if the entry is new, to `blocked_by` those of every `Shared` one
    /// (module docs, § Range registrations in entry space).
    pub(crate) fn add_ref_reporting(
        &self,
        entry: &[u8],
        writer: TxnId,
        readers: &mut RowReaders,
        blocked_by: &mut RowReaders,
    ) {
        let mut entries = self.entries.write();
        let blocked_by = add_ref_to(&mut entries, entry).then_some(blocked_by);
        self.ranges.report_to(entry, writer, readers, blocked_by);
    }

    /// Registers `reader` as the holder of the *entry-space* range `(lower,
    /// upper)` in `mode` (callers map index-key bounds through
    /// [`entry_range`] first): the phantom protection of a Serializable-SI or
    /// S2PL index scan, to be made before the scan lists its entries. `None`
    /// if `reader` already holds a range of that mode on this index that
    /// covers this one.
    pub fn register_range(
        &self,
        lower: Bound<&[u8]>,
        upper: Bound<&[u8]>,
        reader: TxnId,
        mode: RangeMode,
    ) -> Option<RangeHandle> {
        self.ranges.register(lower, upper, reader, mode)
    }

    /// Number of live range registrations, for leak checks.
    pub(crate) fn range_count(&self) -> usize {
        self.ranges.len()
    }

    /// Releases one resident-version reference, removing the entry when the
    /// count reaches zero. A miss is a bug in the maintenance protocol; it
    /// is ignored in release builds (the entry is already gone, which is
    /// the direction safety cares about) but asserted in debug builds.
    pub fn release_ref(&self, entry: &[u8]) {
        let mut entries = self.entries.write();
        match entries.get_mut(entry) {
            Some(refs) if *refs > 1 => *refs -= 1,
            Some(_) => {
                entries.remove(entry);
            }
            None => debug_assert!(false, "released an index entry reference twice"),
        }
    }

    /// All entry keys in an *entry-space* range (callers map index-key
    /// bounds through [`entry_range`] first), in order.
    pub fn entries_in_range(&self, lower: Bound<&[u8]>, upper: Bound<&[u8]>) -> Vec<Arc<[u8]>> {
        let entries = self.entries.read();
        let range = entries.range::<[u8], _>((lower, upper));
        range.map(|(k, _)| k.clone()).collect()
    }

    /// Number of distinct entries currently present.
    pub fn entry_count(&self) -> usize {
        self.entries.read().len()
    }

    /// Every entry with its reference count (the chain model test compares
    /// this with one reference per resident version).
    #[cfg(test)]
    pub(crate) fn ref_counts(&self) -> BTreeMap<Vec<u8>, usize> {
        let entries = self.entries.read();
        entries.iter().map(|(k, n)| (k.to_vec(), *n)).collect()
    }
}

impl std::fmt::Debug for Index {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Index")
            .field("name", &self.def.name)
            .field("unique", &self.def.unique)
            .field("entries", &self.entry_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> IndexKeySpec {
        IndexKeySpec {
            layout: vec![FieldKind::I64, FieldKind::Str, FieldKind::U32],
            parts: vec![IndexKeyPart::ValueField(1)],
        }
    }

    fn value(balance: i64, name: &str, n: u32) -> Vec<u8> {
        ssi_common::encoding::ValueWriter::new()
            .i64(balance)
            .str(name)
            .u32(n)
            .build()
    }

    #[test]
    fn extraction_walks_the_layout() {
        let s = spec();
        let k = s.extract(b"pk", &value(-5, "smith", 7)).unwrap();
        let k2 = s.extract(b"pk", &value(99, "smith", 0)).unwrap();
        assert_eq!(k, k2, "only the extracted field matters");
        assert!(s.extract(b"pk", b"short").is_none(), "malformed row");
    }

    #[test]
    fn extracted_keys_preserve_field_order() {
        let s = spec();
        let k = |name: &str| s.extract(b"p", &value(0, name, 0)).unwrap();
        assert!(k("a") < k("ab"));
        assert!(k("ab") < k("b"));
        let ints = IndexKeySpec {
            layout: vec![FieldKind::I64, FieldKind::Str, FieldKind::U32],
            parts: vec![IndexKeyPart::ValueField(0)],
        };
        let ik = |v: i64| ints.extract(b"p", &value(v, "x", 0)).unwrap();
        assert!(ik(-10) < ik(-1));
        assert!(ik(-1) < ik(0));
        assert!(ik(0) < ik(42));
    }

    #[test]
    fn pk_slice_parts_copy_verbatim() {
        let s = IndexKeySpec {
            layout: vec![],
            parts: vec![IndexKeyPart::PrimaryKeySlice(0, 2)],
        };
        assert_eq!(s.extract(b"abcd", b"").unwrap(), b"ab");
        assert!(s.extract(b"a", b"").is_none(), "slice out of range");
    }

    #[test]
    fn spec_roundtrips_through_bytes() {
        let s = IndexKeySpec {
            layout: vec![FieldKind::U64, FieldKind::Str, FieldKind::F64],
            parts: vec![
                IndexKeyPart::PrimaryKeySlice(0, 8),
                IndexKeyPart::ValueField(1),
            ],
        };
        assert_eq!(IndexKeySpec::decode(&s.encode()), Some(s));
        assert_eq!(IndexKeySpec::decode(b"garbage"), None);
    }

    #[test]
    fn entry_encoding_roundtrips_and_orders() {
        let e = encode_entry(b"key\x00with\x00nuls", b"pk1");
        assert_eq!(
            decode_entry(&e),
            Some((b"key\x00with\x00nuls".to_vec(), b"pk1".to_vec()))
        );
        // Order equals (index_key, pk) order, including across embedded
        // nuls and key/pk boundaries.
        let pairs: [(&[u8], &[u8]); 6] = [
            (b"a", b""),
            (b"a", b"p1"),
            (b"a\x00", b"p0"),
            (b"a\x01", b""),
            (b"ab", b"p"),
            (b"b", b""),
        ];
        let encoded: Vec<Vec<u8>> = pairs.iter().map(|(k, p)| encode_entry(k, p)).collect();
        for w in encoded.windows(2) {
            assert!(w[0] < w[1], "entry order must match pair order");
        }
    }

    #[test]
    fn entry_range_selects_exactly_the_keys_in_bounds() {
        let idx = Index::new(IndexDef {
            id: TableId(9),
            name: "i".into(),
            table: TableId(1),
            unique: false,
            spec: spec(),
        });
        let all: Vec<(&[u8], &[u8])> = vec![
            (b"a", b"p1"),
            (b"b", b"p1"),
            (b"b", b"p2"),
            (b"b\x00", b"p1"),
            (b"c", b"p9"),
        ];
        for (k, p) in &all {
            idx.add_ref(&encode_entry(k, p));
        }
        let keys_in = |lo: Bound<&[u8]>, hi: Bound<&[u8]>| -> Vec<Vec<u8>> {
            let (lo, hi) = entry_range(lo, hi);
            idx.entries_in_range(as_bound_ref(&lo), as_bound_ref(&hi))
                .iter()
                .map(|e| decode_entry(e).unwrap().0)
                .collect()
        };
        fn as_bound_ref(b: &Bound<Vec<u8>>) -> Bound<&[u8]> {
            match b {
                Bound::Included(v) => Bound::Included(v.as_slice()),
                Bound::Excluded(v) => Bound::Excluded(v.as_slice()),
                Bound::Unbounded => Bound::Unbounded,
            }
        }
        assert_eq!(
            keys_in(Bound::Included(b"b"), Bound::Included(b"b")),
            vec![b"b".to_vec(), b"b".to_vec()],
            "inclusive point range finds both claimants of b and nothing else"
        );
        assert_eq!(
            keys_in(Bound::Excluded(b"b"), Bound::Unbounded),
            vec![b"b\x00".to_vec(), b"c".to_vec()],
            "exclusive lower skips every entry of b but not b's extensions"
        );
        assert_eq!(
            keys_in(Bound::Unbounded, Bound::Excluded(b"b")),
            vec![b"a".to_vec()],
        );
        assert_eq!(keys_in(Bound::Unbounded, Bound::Unbounded).len(), 5);
    }

    #[test]
    fn refcounts_track_residency() {
        let idx = Index::new(IndexDef {
            id: TableId(9),
            name: "i".into(),
            table: TableId(1),
            unique: true,
            spec: spec(),
        });
        let e = encode_entry(b"smith", b"pk");
        idx.add_ref(&e);
        idx.add_ref(&e);
        assert_eq!(idx.entry_count(), 1);
        idx.release_ref(&e);
        assert_eq!(idx.entry_count(), 1, "one resident version still claims it");
        idx.release_ref(&e);
        assert_eq!(idx.entry_count(), 0);
    }
}
