//! Binary record framing for the redo log (format in the crate docs).
//!
//! Encoding is infallible and allocation-light; decoding is defensive —
//! every length is bounds-checked against the remaining input and the CRC
//! is verified before a payload is interpreted, so arbitrary garbage (torn
//! tails, bit rot) is reported as [`FrameError`] instead of a panic or a
//! bogus record.

use ssi_common::{TableId, Timestamp, TxnId};

/// Frame header size: length + CRC.
pub const FRAME_HEADER: usize = 8;

/// Upper bound accepted for one frame's payload; anything larger is treated
/// as corruption (no legitimate record approaches this).
pub const MAX_FRAME_LEN: u32 = 1 << 30;

const KIND_COMMIT: u8 = 1;
const KIND_CREATE_TABLE: u8 = 2;
const KIND_CREATE_INDEX: u8 = 3;

const CRC_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Initial state for streaming CRC-32 computation.
pub(crate) const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Folds `bytes` into a streaming CRC-32 state (start from [`CRC_INIT`],
/// finish by xoring with `0xFFFF_FFFF`). Lets large payloads — snapshot
/// bodies — be checksummed chunk by chunk as they stream to disk.
pub(crate) fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = CRC_TABLE[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// CRC-32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(CRC_INIT, bytes) ^ 0xFFFF_FFFF
}

/// One write of one committed transaction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteEntry {
    /// Table the write targets.
    pub table: TableId,
    /// Row key.
    pub key: Vec<u8>,
    /// New value; `None` is a deletion tombstone.
    pub value: Option<Vec<u8>>,
}

/// The redo record of one committed transaction: its timestamp and its
/// whole write set, in write order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitRecord {
    /// Commit timestamp assigned by the transaction manager.
    pub commit_ts: Timestamp,
    /// Id of the committing transaction (diagnostics only; recovery installs
    /// replayed versions under a reserved id).
    pub txn: TxnId,
    /// The write set, in the order the writes were made.
    pub writes: Vec<WriteEntry>,
}

/// A decoded log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// A committed transaction's redo information.
    Commit(CommitRecord),
    /// A table created while the log was active; replayed so commit records
    /// can name tables by id.
    CreateTable {
        /// Id the catalog assigned.
        table: TableId,
        /// Table name.
        name: String,
    },
    /// A secondary index created while the log was active. Index *entries*
    /// are never logged — recovery re-registers the index and rebuilds its
    /// entries by backfill from the replayed version chains — so this
    /// record only carries the definition.
    CreateIndex {
        /// Id the catalog assigned to the index (same namespace as tables).
        index: TableId,
        /// Id of the base table the index covers.
        table: TableId,
        /// Index name (its own namespace).
        name: String,
        /// Whether the index enforces uniqueness of extracted keys.
        unique: bool,
        /// Encoded [`ssi_storage::IndexKeySpec`], opaque to the log.
        spec: Vec<u8>,
    },
}

/// Why decoding stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// Fewer bytes than a frame header remain (a clean end in
    /// [`decode_stream`] when zero remain).
    TruncatedHeader,
    /// The header's length field is implausible.
    BadLength,
    /// The payload is cut short by end-of-input (torn tail).
    TruncatedPayload,
    /// The payload does not match its CRC.
    CrcMismatch,
    /// The CRC matched but the payload structure is invalid.
    Malformed,
}

/// Encodes a commit record as one CRC-framed byte run, directly from
/// borrowed parts of a write set — the zero-copy commit path: values stay
/// `Arc<[u8]>` slices until they are written into the frame. `Record::encode`
/// delegates here for owned records.
pub fn encode_commit_frame<'a, I>(commit_ts: Timestamp, txn: TxnId, writes: I) -> Vec<u8>
where
    I: ExactSizeIterator<Item = (TableId, &'a [u8], Option<&'a [u8]>)>,
{
    let mut frame = encode_commit_frame_unchecksummed(commit_ts, txn, writes);
    let crc = crc32(&frame[FRAME_HEADER..]);
    frame[4..8].copy_from_slice(&crc.to_le_bytes());
    frame
}

/// Like [`encode_commit_frame`] but leaves the CRC field zeroed — for the
/// prepared-commit path, where the timestamp is patched later and the CRC
/// is computed exactly once, after the patch. Such a frame must never be
/// written out without the CRC filled in.
pub(crate) fn encode_commit_frame_unchecksummed<'a, I>(
    commit_ts: Timestamp,
    txn: TxnId,
    writes: I,
) -> Vec<u8>
where
    I: ExactSizeIterator<Item = (TableId, &'a [u8], Option<&'a [u8]>)>,
{
    let mut frame = Vec::with_capacity(64);
    put_u32(&mut frame, 0); // payload length, patched below
    put_u32(&mut frame, 0); // crc, filled by the caller
    frame.push(KIND_COMMIT);
    put_u64(&mut frame, commit_ts);
    put_u64(&mut frame, txn.0);
    put_u32(&mut frame, writes.len() as u32);
    for (table, key, value) in writes {
        put_u32(&mut frame, table.0);
        put_u32(&mut frame, key.len() as u32);
        frame.extend_from_slice(key);
        match value {
            Some(v) => {
                frame.push(1);
                put_u32(&mut frame, v.len() as u32);
                frame.extend_from_slice(v);
            }
            None => {
                frame.push(0);
                put_u32(&mut frame, 0);
            }
        }
    }
    let payload_len = (frame.len() - FRAME_HEADER) as u32;
    frame[0..4].copy_from_slice(&payload_len.to_le_bytes());
    frame
}

fn frame_payload(payload: Vec<u8>) -> Vec<u8> {
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    put_u32(&mut frame, payload.len() as u32);
    put_u32(&mut frame, crc32(&payload));
    frame.extend_from_slice(&payload);
    frame
}

impl Record {
    /// Encodes the record as one CRC-framed byte run.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Record::Commit(c) => encode_commit_frame(
                c.commit_ts,
                c.txn,
                c.writes
                    .iter()
                    .map(|w| (w.table, w.key.as_slice(), w.value.as_deref())),
            ),
            Record::CreateTable { table, name } => {
                let mut payload = Vec::with_capacity(64);
                payload.push(KIND_CREATE_TABLE);
                put_u32(&mut payload, table.0);
                put_u32(&mut payload, name.len() as u32);
                payload.extend_from_slice(name.as_bytes());
                frame_payload(payload)
            }
            Record::CreateIndex {
                index,
                table,
                name,
                unique,
                spec,
            } => {
                let mut payload = Vec::with_capacity(64 + spec.len());
                payload.push(KIND_CREATE_INDEX);
                put_u32(&mut payload, index.0);
                put_u32(&mut payload, table.0);
                put_u32(&mut payload, name.len() as u32);
                payload.extend_from_slice(name.as_bytes());
                payload.push(*unique as u8);
                put_u32(&mut payload, spec.len() as u32);
                payload.extend_from_slice(spec);
                frame_payload(payload)
            }
        }
    }

    /// Decodes one frame from the front of `input`. Returns the record and
    /// the number of bytes consumed.
    pub fn decode(input: &[u8]) -> Result<(Record, usize), FrameError> {
        if input.len() < FRAME_HEADER {
            return Err(FrameError::TruncatedHeader);
        }
        let len = get_u32(&input[0..4]);
        if len > MAX_FRAME_LEN {
            return Err(FrameError::BadLength);
        }
        let crc = get_u32(&input[4..8]);
        let end = FRAME_HEADER + len as usize;
        if input.len() < end {
            return Err(FrameError::TruncatedPayload);
        }
        let payload = &input[FRAME_HEADER..end];
        if crc32(payload) != crc {
            return Err(FrameError::CrcMismatch);
        }
        let record = decode_payload(payload).ok_or(FrameError::Malformed)?;
        Ok((record, end))
    }
}

fn decode_payload(payload: &[u8]) -> Option<Record> {
    let mut cur = Cursor(payload);
    match cur.u8()? {
        KIND_COMMIT => {
            let commit_ts = cur.u64()?;
            let txn = TxnId(cur.u64()?);
            let n = cur.u32()?;
            let mut writes = Vec::with_capacity(n.min(1024) as usize);
            for _ in 0..n {
                let table = TableId(cur.u32()?);
                let key_len = cur.u32()? as usize;
                let key = cur.bytes(key_len)?.to_vec();
                let has_value = cur.u8()?;
                let val_len = cur.u32()? as usize;
                let value = match has_value {
                    0 if val_len == 0 => None,
                    1 => Some(cur.bytes(val_len)?.to_vec()),
                    _ => return None,
                };
                writes.push(WriteEntry { table, key, value });
            }
            cur.at_end().then_some(Record::Commit(CommitRecord {
                commit_ts,
                txn,
                writes,
            }))
        }
        KIND_CREATE_TABLE => {
            let table = TableId(cur.u32()?);
            let name_len = cur.u32()? as usize;
            let name = String::from_utf8(cur.bytes(name_len)?.to_vec()).ok()?;
            cur.at_end().then_some(Record::CreateTable { table, name })
        }
        KIND_CREATE_INDEX => {
            let index = TableId(cur.u32()?);
            let table = TableId(cur.u32()?);
            let name_len = cur.u32()? as usize;
            let name = String::from_utf8(cur.bytes(name_len)?.to_vec()).ok()?;
            let unique = match cur.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            let spec_len = cur.u32()? as usize;
            let spec = cur.bytes(spec_len)?.to_vec();
            cur.at_end().then_some(Record::CreateIndex {
                index,
                table,
                name,
                unique,
                spec,
            })
        }
        _ => None,
    }
}

/// Decodes every whole, valid frame from the front of `input`. Returns the
/// records, the length of the valid prefix, and the error that stopped the
/// scan. Two ends are clean and reported as `None`: no bytes left, and at
/// least a header's worth of bytes left that are all zero — the space a
/// segment reserved ahead of its writer ([`crate::Vfs::create_segment`]).
/// No frame starts with a zero header (a payload always has a kind byte),
/// so a zero length followed by any non-zero byte is still a torn tail.
pub fn decode_stream(input: &[u8]) -> (Vec<Record>, usize, Option<FrameError>) {
    let mut records = Vec::new();
    let mut offset = 0;
    loop {
        match Record::decode(&input[offset..]) {
            Ok((record, consumed)) => {
                records.push(record);
                offset += consumed;
            }
            Err(e) => {
                let rest = &input[offset..];
                let clean =
                    rest.is_empty() || (rest.len() >= FRAME_HEADER && rest.iter().all(|&b| b == 0));
                return (records, offset, (!clean).then_some(e));
            }
        }
    }
}

/// Appends a little-endian `u32` (shared codec helper; also used by the
/// snapshot writer in `checkpoint`).
pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[0..4].try_into().unwrap())
}

/// Bounds-checked reader over untrusted bytes (log payloads, snapshot
/// bodies): every accessor returns `None` instead of panicking when the
/// input runs short.
pub(crate) struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    pub(crate) fn new(input: &'a [u8]) -> Self {
        Cursor(input)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        let (&b, rest) = self.0.split_first()?;
        self.0 = rest;
        Some(b)
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        let b = self.bytes(4)?;
        Some(u32::from_le_bytes(b.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        let b = self.bytes(8)?;
        Some(u64::from_le_bytes(b.try_into().unwrap()))
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Some(head)
    }

    pub(crate) fn at_end(&self) -> bool {
        self.0.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_commit() -> Record {
        Record::Commit(CommitRecord {
            commit_ts: 42,
            txn: TxnId(7),
            writes: vec![
                WriteEntry {
                    table: TableId(1),
                    key: b"alice".to_vec(),
                    value: Some(b"100".to_vec()),
                },
                WriteEntry {
                    table: TableId(2),
                    key: b"bob".to_vec(),
                    value: None,
                },
            ],
        })
    }

    #[test]
    fn commit_roundtrip() {
        let rec = sample_commit();
        let frame = rec.encode();
        let (decoded, consumed) = Record::decode(&frame).unwrap();
        assert_eq!(decoded, rec);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn create_table_roundtrip() {
        let rec = Record::CreateTable {
            table: TableId(3),
            name: "accounts".to_string(),
        };
        let frame = rec.encode();
        let (decoded, consumed) = Record::decode(&frame).unwrap();
        assert_eq!(decoded, rec);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn create_index_roundtrip() {
        let rec = Record::CreateIndex {
            index: TableId(9),
            table: TableId(3),
            name: "accounts_by_owner".to_string(),
            unique: true,
            spec: vec![0x01, 0x02, 0x00, 0xFF],
        };
        let frame = rec.encode();
        let (decoded, consumed) = Record::decode(&frame).unwrap();
        assert_eq!(decoded, rec);
        assert_eq!(consumed, frame.len());
    }

    #[test]
    fn crc_rejects_bit_flips() {
        let frame = sample_commit().encode();
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            // Any single bit flip must be rejected (a flip in the length
            // field may also surface as a truncation or length error).
            assert!(Record::decode(&bad).is_err(), "flip at byte {i} accepted");
        }
    }

    #[test]
    fn truncation_at_every_byte_is_detected() {
        let frame = sample_commit().encode();
        for cut in 0..frame.len() {
            let err = Record::decode(&frame[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    FrameError::TruncatedHeader | FrameError::TruncatedPayload
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn stream_stops_at_torn_tail_and_keeps_prefix() {
        let mut log = Vec::new();
        let mut frames = Vec::new();
        for i in 0..5u64 {
            let rec = Record::Commit(CommitRecord {
                commit_ts: i + 2,
                txn: TxnId(i + 1),
                writes: vec![WriteEntry {
                    table: TableId(1),
                    key: vec![i as u8],
                    value: Some(vec![i as u8; 9]),
                }],
            });
            let frame = rec.encode();
            frames.push(frame.len());
            log.extend_from_slice(&frame);
        }
        // Cut at every byte: the stream must decode exactly the whole
        // records that fit before the cut.
        let mut boundary = 0;
        let mut whole = 0;
        for cut in 0..=log.len() {
            if whole < frames.len() && cut == boundary + frames[whole] {
                boundary += frames[whole];
                whole += 1;
            }
            let (records, valid, err) = decode_stream(&log[..cut]);
            assert_eq!(records.len(), whole, "cut at {cut}");
            assert_eq!(valid, boundary, "cut at {cut}");
            assert_eq!(err.is_none(), cut == boundary, "cut at {cut}");
        }

        // A segment's reserved space: zeros after the last frame are a
        // clean end, not a torn tail.
        let (all, _, _) = decode_stream(&log);
        let mut reserved = log.clone();
        reserved.resize(log.len() + 4096, 0);
        assert_eq!(decode_stream(&reserved), (all.clone(), log.len(), None));
        // Zeros followed by anything else are a torn tail.
        let mut garbage = reserved.clone();
        *garbage.last_mut().unwrap() = 0x5A;
        assert_eq!(
            decode_stream(&garbage),
            (all.clone(), log.len(), Some(FrameError::Malformed))
        );
        // A frame cut inside the reserved space (its bytes stopped short,
        // zeros follow) is torn at every cut.
        let last = *frames.last().unwrap();
        let before_last = log.len() - last;
        for cut in 1..last {
            let mut torn = log[..before_last + cut].to_vec();
            torn.resize(log.len() + 4096, 0);
            let (records, valid, err) = decode_stream(&torn);
            assert_eq!(records, all[..frames.len() - 1], "cut at {cut}");
            assert_eq!(valid, before_last, "cut at {cut}");
            assert!(err.is_some(), "cut at {cut} read as a clean end");
        }
    }

    #[test]
    fn garbage_length_is_rejected() {
        let mut frame = vec![0u8; 16];
        frame[0..4].copy_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert_eq!(Record::decode(&frame), Err(FrameError::BadLength));
    }

    #[test]
    fn crc_is_the_ieee_polynomial() {
        // Standard check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn malformed_payload_with_valid_crc_is_rejected() {
        let payload = vec![KIND_COMMIT, 1, 2, 3];
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        assert_eq!(Record::decode(&frame), Err(FrameError::Malformed));
    }
}
