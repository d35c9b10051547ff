//! Property tests for the WAL record codec and the torn-tail-tolerant
//! reader: encode/decode round-trips for arbitrary records, and — the part
//! that matters for recovery — `scan_log` must stop cleanly at the last
//! valid record on truncated or bit-flipped input, never panic, never
//! over-read, never surface a record it cannot trust. Then replay itself:
//! a committed delta it cannot lay over a committed image is corruption,
//! and nothing is written.

use std::path::{Path, PathBuf};

use jaguar_wal::record::{decode_payload, encode_frame, encode_payload, scan_log, WalRecord};
use jaguar_wal::recover::replay;
use jaguar_wal::WAL_FILE;
use proptest::prelude::*;

fn arb_record() -> impl Strategy<Value = WalRecord> {
    prop_oneof![
        any::<u64>().prop_map(|txn| WalRecord::Begin { txn }),
        any::<u64>().prop_map(|txn| WalRecord::Commit { txn }),
        Just(WalRecord::Checkpoint),
        (
            any::<u64>(),
            // The codec must round-trip any file string, including ones
            // recovery would later reject as hostile.
            ".{0,16}",
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..300),
        )
            .prop_map(|(txn, file, page, data)| WalRecord::PageImage {
                txn,
                file,
                page,
                data,
            }),
        (
            any::<u64>(),
            ".{0,16}",
            any::<u32>(),
            proptest::collection::vec(
                (any::<u32>(), proptest::collection::vec(any::<u8>(), 0..40)),
                0..6,
            ),
        )
            .prop_map(|(txn, file, page, ranges)| WalRecord::PageDelta {
                txn,
                file,
                page,
                ranges,
            }),
    ]
}

const PAGE: usize = 256;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jaguar-props-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_log(dir: &Path, records: &[WalRecord]) {
    let mut log = Vec::new();
    for (i, rec) in records.iter().enumerate() {
        log.extend_from_slice(&encode_frame(i as u64 + 1, rec));
    }
    std::fs::write(dir.join(WAL_FILE), log).unwrap();
}

fn image(txn: u64) -> WalRecord {
    WalRecord::PageImage {
        txn,
        file: "t.jag".into(),
        page: 2,
        data: vec![7; PAGE],
    }
}

fn delta(txn: u64, ranges: Vec<(u32, Vec<u8>)>) -> WalRecord {
    WalRecord::PageDelta {
        txn,
        file: "t.jag".into(),
        page: 2,
        ranges,
    }
}

/// Replay must refuse the log as corruption naming `t.jag` page 2, with
/// no data file written.
fn assert_refused(dir: &Path, why: &str) {
    let err = replay(dir, PAGE).unwrap_err();
    let text = err.to_string();
    assert!(
        matches!(err, jaguar_common::JaguarError::Corruption(_))
            && text.contains("t.jag page 2")
            && text.contains(why),
        "{text}"
    );
    assert!(!dir.join("t.jag").exists(), "nothing may be written");
}

/// A committed delta needs a committed image of its page earlier in the
/// log: none at all, one whose transaction never committed, and one that
/// comes after the delta are all refused.
#[test]
fn a_delta_without_an_earlier_committed_image_is_corruption() {
    let dir = tmpdir("orphan");
    let commit = |txn| WalRecord::Commit { txn };
    let logs = [
        vec![delta(1, vec![(0, vec![1])]), commit(1)],
        vec![image(1), delta(2, vec![(0, vec![1])]), commit(2)],
        vec![delta(1, vec![(0, vec![1])]), image(1), commit(1)],
    ];
    for log in logs {
        write_log(&dir, &log);
        assert_refused(&dir, "no committed image");
    }
    // With the image committed first, the same delta replays.
    write_log(
        &dir,
        &[image(1), commit(1), delta(2, vec![(0, vec![1])]), commit(2)],
    );
    let stats = replay(&dir, PAGE).unwrap();
    assert_eq!((stats.replayed_pages, stats.replayed_deltas), (1, 1));
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #[test]
    fn payload_roundtrips(lsn in any::<u64>(), rec in arb_record()) {
        let payload = encode_payload(lsn, &rec);
        let (lsn2, rec2) = decode_payload(&payload).unwrap();
        prop_assert_eq!(lsn, lsn2);
        prop_assert_eq!(rec, rec2);
    }

    #[test]
    fn scan_recovers_all_records_of_a_clean_log(
        recs in proptest::collection::vec(arb_record(), 0..12),
    ) {
        let mut log = Vec::new();
        for (i, rec) in recs.iter().enumerate() {
            log.extend_from_slice(&encode_frame(i as u64, rec));
        }
        let scan = scan_log(&log);
        prop_assert_eq!(scan.valid_len, log.len());
        prop_assert_eq!(scan.records.len(), recs.len());
        for (i, (lsn, rec)) in scan.records.iter().enumerate() {
            prop_assert_eq!(*lsn, i as u64);
            prop_assert_eq!(rec, &recs[i]);
        }
    }

    #[test]
    fn truncated_tail_keeps_every_whole_frame(
        recs in proptest::collection::vec(arb_record(), 1..8),
        keep_frames in any::<u64>(),
        cut in any::<u64>(),
    ) {
        // A log of N frames, truncated somewhere inside frame K: the scan
        // must return exactly the K complete frames before the cut.
        let mut log = Vec::new();
        let mut offsets = vec![0usize];
        for (i, rec) in recs.iter().enumerate() {
            log.extend_from_slice(&encode_frame(i as u64, rec));
            offsets.push(log.len());
        }
        let whole = (keep_frames as usize) % recs.len();
        let frame_len = offsets[whole + 1] - offsets[whole];
        // Cut strictly inside frame `whole` (losing at least one byte).
        let cut_at = offsets[whole] + (cut as usize) % frame_len;
        let scan = scan_log(&log[..cut_at]);
        prop_assert_eq!(scan.records.len(), whole);
        prop_assert_eq!(scan.valid_len, offsets[whole]);
        for (i, (lsn, rec)) in scan.records.iter().enumerate() {
            prop_assert_eq!(*lsn, i as u64);
            prop_assert_eq!(rec, &recs[i]);
        }
    }

    #[test]
    fn bit_flip_never_panics_and_never_grows_the_scan(
        recs in proptest::collection::vec(arb_record(), 1..8),
        byte_pos in any::<u64>(),
        bit in 0u8..8,
    ) {
        let mut log = Vec::new();
        for (i, rec) in recs.iter().enumerate() {
            log.extend_from_slice(&encode_frame(i as u64, rec));
        }
        let pos = (byte_pos as usize) % log.len();
        log[pos] ^= 1 << bit;
        // Must not panic; must not read past the buffer; must not return
        // more records than were written; and every record *before* the
        // flipped byte is unaffected.
        let scan = scan_log(&log);
        prop_assert!(scan.valid_len <= log.len());
        prop_assert!(scan.records.len() <= recs.len());
        let mut offset = 0usize;
        for (i, (lsn, rec)) in scan.records.iter().enumerate() {
            let frame = encode_frame(i as u64, &recs[i]);
            if offset + frame.len() <= pos {
                prop_assert_eq!(*lsn, i as u64);
                prop_assert_eq!(rec, &recs[i]);
            }
            offset += frame.len();
        }
    }

    #[test]
    fn scan_is_total_on_arbitrary_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let scan = scan_log(&bytes);
        prop_assert!(scan.valid_len <= bytes.len());
        // Whatever survived must itself rescan identically (idempotence).
        let again = scan_log(&bytes[..scan.valid_len]);
        prop_assert_eq!(again.valid_len, scan.valid_len);
        prop_assert_eq!(again.records, scan.records);
    }

    #[test]
    fn decode_is_total_on_arbitrary_payloads(
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        // Errors are fine; panics are not.
        let _ = decode_payload(&payload);
    }
}

proptest! {
    /// Any committed delta over a committed image: replayed exactly when
    /// its ranges are sorted, disjoint and inside the page, and refused as
    /// corruption naming the file and page, with nothing written, when not.
    #[test]
    fn delta_ranges_replay_iff_sorted_disjoint_and_inside_the_page(
        ranges in proptest::collection::vec((0u32..300, 0usize..40), 0..5),
    ) {
        let dir = tmpdir("ranges");
        let ranges: Vec<(u32, Vec<u8>)> =
            ranges.into_iter().map(|(at, len)| (at, vec![9; len])).collect();
        // The first range out of order or out of the page decides.
        let mut end = 0;
        let mut refusal = None;
        for (at, bytes) in &ranges {
            if (*at as usize) < end {
                refusal = refusal.or(Some("overlapping or unsorted"));
            }
            end = *at as usize + bytes.len();
            if end > PAGE {
                refusal = refusal.or(Some("past the end of the page"));
            }
        }
        write_log(&dir, &[
            image(1),
            WalRecord::Commit { txn: 1 },
            delta(2, ranges.clone()),
            WalRecord::Commit { txn: 2 },
        ]);
        match refusal {
            Some(why) => assert_refused(&dir, why),
            None => {
                replay(&dir, PAGE).unwrap();
                let mut want = vec![7u8; PAGE];
                for (at, bytes) in &ranges {
                    want[*at as usize..*at as usize + bytes.len()].copy_from_slice(bytes);
                }
                let raw = std::fs::read(dir.join("t.jag")).unwrap();
                prop_assert_eq!(&raw[2 * PAGE + 4..3 * PAGE], &want[4..]);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
