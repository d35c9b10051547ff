//! Log record framing.
//!
//! The log is a flat sequence of frames:
//!
//! ```text
//! [u32 crc32][u32 len][payload: u64 lsn | u8 kind | body]
//! ```
//!
//! `crc32` (IEEE polynomial) covers the payload only; `len` is the payload
//! length. A reader walks frames from the start and stops at the first one
//! that is short, oversized, fails the CRC, or does not parse — everything
//! before that point is trusted, everything from it on is treated as a torn
//! tail from an interrupted write and ignored. This is what makes an
//! `abort()` (or power cut) mid-append safe: the tail simply does not exist.

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::stream::{read_blob, read_str, read_u32, read_u64, read_u8};
use jaguar_common::stream::{write_blob, write_str, write_u32, write_u64, write_u8};

/// Frames longer than this are treated as torn garbage rather than records;
/// a real payload is bounded by one page image plus small framing.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Bytes of framing preceding each payload (crc + len).
pub const FRAME_HEADER: usize = 8;

/// One logical log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A transaction started.
    Begin { txn: u64 },
    /// A transaction's page images are all in the log; it is now committed.
    Commit { txn: u64 },
    /// Full after-image of one page of a table file (physical redo).
    PageImage {
        txn: u64,
        /// File name relative to the database directory (e.g. `events.jag`).
        /// Table ids are reassigned on restart, so the file name is the
        /// stable identity.
        file: String,
        page: u32,
        data: Vec<u8>,
    },
    /// All prior records are reflected in synced data files; written as the
    /// first record of a freshly truncated log.
    Checkpoint,
    /// Byte ranges of one page's after-image, `(offset, bytes)` in offset
    /// order, to be laid over the page as the log's earlier records of it
    /// left it (physical redo). Logged only for a page with a committed
    /// [`WalRecord::PageImage`] earlier in the same log.
    PageDelta {
        txn: u64,
        file: String,
        page: u32,
        ranges: Vec<(u32, Vec<u8>)>,
    },
}

const KIND_BEGIN: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_PAGE_IMAGE: u8 = 3;
const KIND_CHECKPOINT: u8 = 4;
const KIND_PAGE_DELTA: u8 = 5;

/// Slice-by-8 lookup tables: `CRC_TABLES[0]` is the classic byte-at-a-time
/// table, `CRC_TABLES[k][b]` the CRC of byte `b` followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
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
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected), eight bytes per step (slice-by-8): the
/// same polynomial and values as the byte-at-a-time loop, which spends one
/// dependent table lookup per byte where this spends eight independent ones
/// per eight — a page image is 8 KiB of it on every commit.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Encode a record payload (lsn + kind + body), without framing.
pub fn encode_payload(lsn: u64, rec: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(32);
    write_payload(&mut buf, lsn, rec);
    buf
}

/// Append a record's payload to `buf`.
pub(crate) fn write_payload(buf: &mut Vec<u8>, lsn: u64, rec: &WalRecord) {
    let (kind, txn) = match rec {
        WalRecord::Begin { txn } => (KIND_BEGIN, Some(*txn)),
        WalRecord::Commit { txn } => (KIND_COMMIT, Some(*txn)),
        WalRecord::PageImage {
            txn,
            file,
            page,
            data,
        } => return write_page_image(buf, lsn, *txn, file, *page, data, |_| {}),
        WalRecord::Checkpoint => (KIND_CHECKPOINT, None),
        WalRecord::PageDelta {
            txn,
            file,
            page,
            ranges,
        } => {
            let ranges = ranges.iter().map(|(at, bytes)| (*at, bytes.as_slice()));
            return write_page_delta(buf, lsn, *txn, file, *page, ranges);
        }
    };
    // Writes to a Vec cannot fail.
    write_u64(buf, lsn).expect("vec write");
    write_u8(buf, kind).expect("vec write");
    if let Some(txn) = txn {
        write_u64(buf, txn).expect("vec write");
    }
}

/// Append a [`WalRecord::PageImage`] payload to `buf`, copying the page
/// from `data` — typically the latched pool frame — exactly once. `seal`
/// may still transform the copy in place (encrypt it) before the frame's
/// CRC is taken over it.
pub fn write_page_image(
    buf: &mut Vec<u8>,
    lsn: u64,
    txn: u64,
    file: &str,
    page: u32,
    data: &[u8],
    seal: impl FnOnce(&mut [u8]),
) {
    write_u64(buf, lsn).expect("vec write");
    write_u8(buf, KIND_PAGE_IMAGE).expect("vec write");
    write_u64(buf, txn).expect("vec write");
    write_str(buf, file).expect("vec write");
    write_u32(buf, page).expect("vec write");
    write_blob(buf, data).expect("vec write");
    let image = buf.len() - data.len();
    seal(&mut buf[image..]);
}

/// Append a [`WalRecord::PageDelta`] payload to `buf`, copying each range
/// from wherever it lies — typically the latched pool frame.
pub fn write_page_delta<'a>(
    buf: &mut Vec<u8>,
    lsn: u64,
    txn: u64,
    file: &str,
    page: u32,
    ranges: impl ExactSizeIterator<Item = (u32, &'a [u8])>,
) {
    write_u64(buf, lsn).expect("vec write");
    write_u8(buf, KIND_PAGE_DELTA).expect("vec write");
    write_u64(buf, txn).expect("vec write");
    write_str(buf, file).expect("vec write");
    write_u32(buf, page).expect("vec write");
    write_u32(buf, ranges.len() as u32).expect("vec write");
    for (at, bytes) in ranges {
        write_u32(buf, at).expect("vec write");
        write_blob(buf, bytes).expect("vec write");
    }
}

/// Decode one payload produced by [`encode_payload`].
pub fn decode_payload(payload: &[u8]) -> Result<(u64, WalRecord)> {
    let mut r = payload;
    let lsn = read_u64(&mut r)?;
    let kind = read_u8(&mut r)?;
    let rec = match kind {
        KIND_BEGIN => WalRecord::Begin {
            txn: read_u64(&mut r)?,
        },
        KIND_COMMIT => WalRecord::Commit {
            txn: read_u64(&mut r)?,
        },
        KIND_PAGE_IMAGE => WalRecord::PageImage {
            txn: read_u64(&mut r)?,
            file: read_str(&mut r)?,
            page: read_u32(&mut r)?,
            data: read_blob(&mut r)?,
        },
        KIND_CHECKPOINT => WalRecord::Checkpoint,
        KIND_PAGE_DELTA => WalRecord::PageDelta {
            txn: read_u64(&mut r)?,
            file: read_str(&mut r)?,
            page: read_u32(&mut r)?,
            ranges: {
                let n = read_u32(&mut r)?;
                // Each range takes at least eight bytes, so a forged count
                // fails on the bytes it lacks, not on an allocation.
                (0..n)
                    .map(|_| Ok((read_u32(&mut r)?, read_blob(&mut r)?)))
                    .collect::<Result<_>>()?
            },
        },
        other => {
            return Err(JaguarError::Corruption(format!(
                "unknown wal record kind {other}"
            )))
        }
    };
    if !r.is_empty() {
        return Err(JaguarError::Corruption(format!(
            "wal record has {} trailing bytes",
            r.len()
        )));
    }
    Ok((lsn, rec))
}

/// Frame a record for appending: crc + len + payload.
pub fn encode_frame(lsn: u64, rec: &WalRecord) -> Vec<u8> {
    let mut frame = Vec::new();
    frame_into(&mut frame, |buf| write_payload(buf, lsn, rec));
    frame
}

/// Build a frame in `frame`, whose old contents go and whose capacity
/// stays: `payload` appends the payload behind the header, which is filled
/// in afterwards — one buffer, no intermediate copy.
pub fn frame_into(frame: &mut Vec<u8>, payload: impl FnOnce(&mut Vec<u8>)) {
    frame.clear();
    frame.resize(FRAME_HEADER, 0);
    payload(frame);
    let len = (frame.len() - FRAME_HEADER) as u32;
    let crc = crc32(&frame[FRAME_HEADER..]);
    frame[0..4].copy_from_slice(&crc.to_le_bytes());
    frame[4..8].copy_from_slice(&len.to_le_bytes());
}

/// Result of scanning a raw log image.
pub struct LogScan {
    /// Decoded records in file order.
    pub records: Vec<(u64, WalRecord)>,
    /// Offset of the first byte *not* covered by a valid frame; everything
    /// from here to the end of the input is a torn tail (0 bytes if clean).
    pub valid_len: usize,
}

/// Walk frames from the start of `raw`, tolerating a torn tail: the scan
/// stops cleanly at the first short, oversized, CRC-failing, or unparsable
/// frame and never reads past the end of the input.
pub fn scan_log(raw: &[u8]) -> LogScan {
    let mut records = Vec::new();
    let mut off = 0usize;
    while raw.len() - off >= FRAME_HEADER {
        let crc = u32::from_le_bytes(raw[off..off + 4].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(raw[off + 4..off + 8].try_into().expect("4 bytes"));
        if len > MAX_PAYLOAD {
            break; // garbage length: torn or corrupt tail
        }
        let len = len as usize;
        let start = off + FRAME_HEADER;
        let Some(end) = start.checked_add(len).filter(|&e| e <= raw.len()) else {
            break; // frame extends past the file: torn tail
        };
        let payload = &raw[start..end];
        if crc32(payload) != crc {
            break; // bit flip or partial write
        }
        let Ok((lsn, rec)) = decode_payload(payload) else {
            break; // CRC matched but body malformed — treat as tail
        };
        records.push((lsn, rec));
        off = end;
    }
    LogScan {
        records,
        valid_len: off,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Begin { txn: 7 },
            WalRecord::PageImage {
                txn: 7,
                file: "events.jag".into(),
                page: 3,
                data: vec![0xAB; 256],
            },
            WalRecord::PageDelta {
                txn: 7,
                file: "events.jag".into(),
                page: 3,
                ranges: vec![(0, vec![1; 20]), (100, vec![2, 3])],
            },
            WalRecord::Commit { txn: 7 },
            WalRecord::Checkpoint,
        ]
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time loop `crc32` replaced, kept as its reference.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc32_matches_the_bytewise_loop_at_every_length_and_alignment() {
        let mut rng = jaguar_common::rng::SplitMix64::new(0xC4C);
        let mut data = vec![0u8; 20_000 + 7];
        rng.fill_bytes(&mut data);
        // Every length up to a few words, at every offset into a word…
        for len in 0..=70 {
            for start in 0..8 {
                let s = &data[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "len {len} start {start}");
            }
        }
        // …and random lengths up to well past a page image.
        for _ in 0..300 {
            let len = rng.next_below(20_001) as usize;
            let start = rng.next_below(8) as usize;
            let s = &data[start..start + len];
            assert_eq!(crc32(s), crc32_bytewise(s), "len {len} start {start}");
        }
    }

    /// A page image framed from a borrowed page, sealed in place, is the
    /// frame `encode_frame` builds from the owned, already-sealed record.
    #[test]
    fn page_image_framed_in_place_equals_the_owned_encoding() {
        let page = vec![0x5Au8; 512];
        let seal = |image: &mut [u8]| image.iter_mut().for_each(|b| *b ^= 0xFF);
        let mut frame = vec![1, 2, 3]; // stale contents must not survive
        frame_into(&mut frame, |buf| {
            write_page_image(buf, 9, 4, "t.jag", 6, &page, seal)
        });
        let mut sealed = page.clone();
        seal(&mut sealed);
        let owned = WalRecord::PageImage {
            txn: 4,
            file: "t.jag".into(),
            page: 6,
            data: sealed,
        };
        assert_eq!(frame, encode_frame(9, &owned));
        assert_eq!(scan_log(&frame).records, vec![(9, owned)]);
    }

    #[test]
    fn frame_roundtrip() {
        let mut log = Vec::new();
        for (i, rec) in sample_records().iter().enumerate() {
            log.extend_from_slice(&encode_frame(i as u64 + 1, rec));
        }
        let scan = scan_log(&log);
        assert_eq!(scan.valid_len, log.len());
        assert_eq!(scan.records.len(), 5);
        assert_eq!(scan.records[1].0, 2);
        assert_eq!(scan.records[1].1, sample_records()[1]);
    }

    #[test]
    fn truncated_tail_stops_cleanly() {
        let mut log = Vec::new();
        for (i, rec) in sample_records().iter().enumerate() {
            log.extend_from_slice(&encode_frame(i as u64, rec));
        }
        let full = log.len();
        // Chop bytes off the end one at a time: the scan must never panic
        // and must return only whole valid records.
        for cut in 1..=full.min(80) {
            let scan = scan_log(&log[..full - cut]);
            assert!(scan.records.len() <= 5);
            assert!(scan.valid_len <= full - cut);
        }
    }

    #[test]
    fn bit_flip_in_tail_record_drops_it() {
        let mut log = Vec::new();
        log.extend_from_slice(&encode_frame(1, &WalRecord::Begin { txn: 1 }));
        let keep = log.len();
        log.extend_from_slice(&encode_frame(2, &WalRecord::Commit { txn: 1 }));
        log[keep + FRAME_HEADER + 2] ^= 0x40; // corrupt second payload
        let scan = scan_log(&log);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, keep);
    }

    #[test]
    fn absurd_length_does_not_overread() {
        let mut log = encode_frame(1, &WalRecord::Checkpoint);
        // Forge a frame header declaring a huge payload.
        let keep = log.len();
        log.extend_from_slice(&0u32.to_le_bytes());
        log.extend_from_slice(&u32::MAX.to_le_bytes());
        log.extend_from_slice(&[0u8; 16]);
        let scan = scan_log(&log);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.valid_len, keep);
    }

    #[test]
    fn unknown_kind_is_torn_tail() {
        let mut payload = encode_payload(5, &WalRecord::Checkpoint);
        *payload.last_mut().unwrap() = 99; // invalid kind, fix CRC to match
        let mut log = Vec::new();
        log.extend_from_slice(&crc32(&payload).to_le_bytes());
        log.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        log.extend_from_slice(&payload);
        let scan = scan_log(&log);
        assert!(scan.records.is_empty());
        assert_eq!(scan.valid_len, 0);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert!(scan_log(&[]).records.is_empty());
        assert!(scan_log(&[1, 2, 3]).records.is_empty());
        assert_eq!(scan_log(&[0u8; 7]).valid_len, 0);
    }
}
