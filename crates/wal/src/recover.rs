//! The redo pass.
//!
//! Recovery scans the log with the torn-tolerant reader, collects the set
//! of committed transactions, and replays their page records in LSN order.
//! Each page is built in memory — its full image first, then its deltas —
//! and written once through [`DiskManager`] into its data file, extending
//! the file as needed. Uncommitted transactions (no `Commit` record inside
//! the valid prefix) are discarded, which together with the pool's
//! no-steal policy yields statement atomicity without an undo pass.
//!
//! Replaying unconditionally (no page-LSN comparison) is correct because
//! every checkpoint truncates the log only after the data files are synced,
//! and because the first record of a page after a checkpoint (or open) is
//! always a full image: the log holds at most one chain of records per page
//! since the data file last had the page, starting from an image. So
//! recovery never needs to *read* a data page — important, because a torn
//! data-page write would fail its checksum on read, but is simply
//! overwritten here. A committed delta with no committed image before it,
//! or with ranges that do not fit the page, is corruption, and the pass
//! fails before it writes anything.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::fs::read_existing;
use jaguar_common::ids::PageId;
use jaguar_storage::DiskManager;

use crate::record::{scan_log, WalRecord};
use crate::{validate_file_id, WAL_FILE};

/// What one recovery pass did.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryStats {
    /// Committed transactions whose effects were replayed.
    pub recovered_txns: u64,
    /// Committed page images replayed.
    pub replayed_pages: u64,
    /// Committed page deltas replayed.
    pub replayed_deltas: u64,
    /// Valid records scanned from the log (all kinds).
    pub scanned_records: u64,
    /// Bytes of torn/corrupt tail discarded.
    pub torn_bytes: u64,
    /// Highest LSN seen in the valid prefix (0 for an empty log).
    pub max_lsn: u64,
}

/// Replay the log under `dir` into its data files. Missing log = fresh
/// database = all-zero stats; a log that cannot be read is an error. Data
/// files touched are synced before return.
pub fn replay(dir: &Path, page_size: usize) -> Result<RecoveryStats> {
    let mut stats = RecoveryStats::default();
    let Some(raw) = read_existing(&dir.join(WAL_FILE))? else {
        return Ok(stats);
    };
    let scan = scan_log(&raw);
    stats.scanned_records = scan.records.len() as u64;
    stats.torn_bytes = (raw.len() - scan.valid_len) as u64;
    stats.max_lsn = scan.records.iter().map(|(lsn, _)| *lsn).max().unwrap_or(0);

    let committed: HashSet<u64> = scan
        .records
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Commit { txn } => Some(*txn),
            _ => None,
        })
        .collect();
    let mut replayed_txns: HashSet<u64> = HashSet::new();

    // (file, page) -> the page as the committed records so far leave it.
    let mut pages: BTreeMap<(String, u32), Vec<u8>> = BTreeMap::new();
    for (_lsn, rec) in scan.records {
        match rec {
            WalRecord::PageImage {
                txn,
                file,
                page,
                data,
            } if committed.contains(&txn) => {
                validate_file_id(&file)?;
                if data.len() != page_size {
                    return Err(JaguarError::Corruption(format!(
                        "wal image for {file} page {page} is {} bytes but the \
                         configured page size is {page_size}",
                        data.len()
                    )));
                }
                pages.insert((file, page), data);
                stats.replayed_pages += 1;
                replayed_txns.insert(txn);
            }
            WalRecord::PageDelta {
                txn,
                file,
                page,
                ranges,
            } if committed.contains(&txn) => {
                validate_file_id(&file)?;
                let corrupt = |what: &str| {
                    JaguarError::Corruption(format!("wal delta for {file} page {page} {what}"))
                };
                let Some(image) = pages.get_mut(&(file.clone(), page)) else {
                    return Err(corrupt("has no committed image before it"));
                };
                // A failure leaves this page half-built, but the pass
                // returns before it writes any page.
                let mut end = 0;
                for (at, bytes) in &ranges {
                    let at = *at as usize;
                    if at < end {
                        return Err(corrupt("has overlapping or unsorted ranges"));
                    }
                    end = at + bytes.len();
                    if end > page_size {
                        return Err(corrupt("has a range past the end of the page"));
                    }
                    image[at..end].copy_from_slice(bytes);
                }
                stats.replayed_deltas += 1;
                replayed_txns.insert(txn);
            }
            _ => {}
        }
    }
    let mut disks: HashMap<String, DiskManager> = HashMap::new();
    for ((file, page), mut data) in pages {
        let disk = match disks.entry(file) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                let d = DiskManager::open(&dir.join(e.key()), page_size)?;
                e.insert(d)
            }
        };
        // The page may lie past the current end of a file whose extension
        // never reached disk; re-extend first.
        while disk.page_count() <= page {
            disk.allocate_page()?;
        }
        disk.write_page(PageId(page), &mut data)?;
    }
    for disk in disks.values() {
        disk.sync()?;
    }
    stats.recovered_txns = replayed_txns.len() as u64;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::encode_frame;
    use std::io::Write;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("jaguar-rec-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_log(dir: &Path, records: &[(u64, WalRecord)]) {
        let mut f = std::fs::File::create(dir.join(WAL_FILE)).unwrap();
        for (lsn, rec) in records {
            f.write_all(&encode_frame(*lsn, rec)).unwrap();
        }
    }

    fn image(txn: u64, file: &str, page: u32, fill: u8, size: usize) -> WalRecord {
        let mut data = vec![0u8; size];
        data[64] = fill;
        WalRecord::PageImage {
            txn,
            file: file.into(),
            page,
            data,
        }
    }

    #[test]
    fn missing_log_is_fresh() {
        let dir = tmpdir("fresh");
        let stats = replay(&dir, 256).unwrap();
        assert_eq!(stats.scanned_records, 0);
        assert_eq!(stats.max_lsn, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn later_image_wins() {
        let dir = tmpdir("order");
        write_log(
            &dir,
            &[
                (1, WalRecord::Begin { txn: 1 }),
                (2, image(1, "t.jag", 0, 11, 256)),
                (3, WalRecord::Commit { txn: 1 }),
                (4, WalRecord::Begin { txn: 2 }),
                (5, image(2, "t.jag", 0, 22, 256)),
                (6, WalRecord::Commit { txn: 2 }),
            ],
        );
        let stats = replay(&dir, 256).unwrap();
        assert_eq!(stats.recovered_txns, 2);
        assert_eq!(stats.replayed_pages, 2);
        assert_eq!(stats.max_lsn, 6);
        let dm = DiskManager::open(&dir.join("t.jag"), 256).unwrap();
        let mut buf = vec![0u8; 256];
        dm.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[64], 22);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn page_size_mismatch_is_corruption() {
        let dir = tmpdir("size");
        write_log(
            &dir,
            &[
                (1, image(1, "t.jag", 0, 1, 128)),
                (2, WalRecord::Commit { txn: 1 }),
            ],
        );
        assert!(replay(&dir, 256).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn hostile_file_id_rejected() {
        let dir = tmpdir("hostile");
        write_log(
            &dir,
            &[
                (1, image(1, "../escape.jag", 0, 1, 256)),
                (2, WalRecord::Commit { txn: 1 }),
            ],
        );
        assert!(replay(&dir, 256).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_counted_and_ignored() {
        let dir = tmpdir("torn");
        write_log(
            &dir,
            &[
                (1, WalRecord::Begin { txn: 1 }),
                (2, image(1, "t.jag", 0, 5, 256)),
                (3, WalRecord::Commit { txn: 1 }),
            ],
        );
        // Append garbage simulating a torn write.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(dir.join(WAL_FILE))
            .unwrap();
        f.write_all(&[0xDE, 0xAD, 0xBE]).unwrap();
        drop(f);
        let stats = replay(&dir, 256).unwrap();
        assert_eq!(stats.recovered_txns, 1);
        assert_eq!(stats.torn_bytes, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
