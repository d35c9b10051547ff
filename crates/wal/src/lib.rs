//! # jaguar-wal — write-ahead logging, checkpointing, crash recovery
//!
//! PREDATOR inherited durability from the Shore storage manager; this crate
//! is the equivalent substrate for `jaguar-storage`. It implements an
//! ARIES-lite, redo-only protocol:
//!
//! - **Physical redo.** Each committed statement logs every page it
//!   touched, bracketed by `Begin`/`Commit` markers. A page's first record
//!   after a checkpoint (or open) is its full after-image
//!   ([`record::WalRecord::PageImage`]); once that image is committed, later
//!   records of the page carry only the byte ranges that changed since the
//!   page last left the unlogged set ([`record::WalRecord::PageDelta`],
//!   diffed against the pool's [`jaguar_storage::buffer::PageBase`]). An
//!   encrypted database logs only sealed full images, so the log never
//!   holds plaintext. Recovery replays the records of *committed*
//!   transactions in LSN order and discards the rest.
//! - **No-steal, so no undo.** The buffer pool refuses to evict a dirty
//!   page whose latest mutation has not been logged (see
//!   [`jaguar_storage::WalHook`] and the unlogged-page tracking in
//!   `BufferPool`), so uncommitted data never reaches a data file and an
//!   undo pass is unnecessary. Pages keep that protection for the whole
//!   commit window: the commit path snapshots the unlogged set and retires
//!   it only after the `Commit` record is durable, so a concurrent query
//!   can never evict a mid-commit page.
//! - **WAL-before-data.** Before any dirty page is written back, the hook
//!   makes the log durable up to that page's LSN ([`Wal::barrier_durable`]);
//!   the barrier syncs in every mode except [`SyncMode::Off`].
//! - **Group commit.** Under [`SyncMode::Full`] concurrent committers share
//!   one `fdatasync`: the first becomes the leader and syncs, the rest wait
//!   on a condvar and are released together.
//! - **Checkpoint = flush + truncate.** A checkpoint syncs the log, flushes
//!   and syncs every data file, then truncates the log to a single
//!   `Checkpoint` record — bounding both log size and recovery time.
//!
//! The log format and torn-tail-tolerant reader live in [`record`]; named
//! crash points and torn-write simulation for the recovery harness live in
//! [`fault`]; the redo pass lives in [`recover`].

pub mod fault;
pub mod record;
pub mod recover;

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jaguar_common::config::{Config, SyncMode};
use jaguar_common::error::{JaguarError, Result};
use jaguar_common::ids::PageId;
use jaguar_common::obs;
use jaguar_common::retry::{self, RetryPolicy};
use jaguar_sec::PageCipher;
use jaguar_storage::page::set_page_lsn;
use jaguar_storage::{BufferPool, DiskManager, WalHook};
use parking_lot::{Condvar, Mutex, RwLock};

use record::{encode_frame, WalRecord};
pub use recover::RecoveryStats;

/// Name of the log file inside a database directory.
pub const WAL_FILE: &str = "wal.log";

struct WalInner {
    file: File,
    /// The frame being appended; kept for its capacity, so a commit's page
    /// images are encoded into the same buffer one after another.
    frame: Vec<u8>,
    next_lsn: u64,
    log_bytes: u64,
    commits_since_checkpoint: u64,
}

struct SyncState {
    /// Highest LSN known to be on stable storage.
    durable_lsn: u64,
    /// A leader is currently running `fdatasync`.
    syncing: bool,
}

/// The write-ahead log of one database directory.
pub struct Wal {
    path: PathBuf,
    sync_mode: SyncMode,
    segment_bytes: u64,
    checkpoint_every: u64,
    inner: Mutex<WalInner>,
    /// Duplicated fd for fsync, so group commit never blocks appenders.
    sync_file: File,
    /// Highest LSN fully handed to the OS (readable without `inner`).
    appended_lsn: AtomicU64,
    sync_state: Mutex<SyncState>,
    sync_cv: Condvar,
    /// Commits hold this shared; checkpoint truncation holds it exclusive,
    /// so a log truncation can never delete half of an in-flight txn.
    txn_gate: RwLock<()>,
    next_txn: AtomicU64,
    /// When set, logged page images are transformed into their on-disk
    /// sealed (encrypted) form before hitting the log, so the log never
    /// carries plaintext row data and recovery can replay the bytes
    /// verbatim without the key. No deltas are logged then.
    cipher: Option<Arc<dyn PageCipher>>,
    /// Per data file, the pages with a committed image in the current log:
    /// only these may be logged as deltas. Emptied when the log is.
    imaged: Mutex<HashMap<String, HashSet<u32>>>,
}

impl Wal {
    /// Open the log for `dir`, first running crash recovery: committed page
    /// images in the existing log are replayed into the data files, the
    /// data files are synced, and the log is truncated. Returns the live
    /// log plus what recovery did (also mirrored to `wal.*` metrics).
    pub fn open(dir: &Path, config: &Config) -> Result<(Arc<Wal>, RecoveryStats)> {
        Wal::open_with_cipher(dir, config, None)
    }

    /// [`Wal::open`] for an encrypted database: future page images are
    /// sealed with `cipher` before being logged. Recovery itself needs no
    /// key — replayed images are already in on-disk form.
    pub fn open_with_cipher(
        dir: &Path,
        config: &Config,
        cipher: Option<Arc<dyn PageCipher>>,
    ) -> Result<(Arc<Wal>, RecoveryStats)> {
        let stats = recover::replay(dir, config.page_size)?;
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let sync_file = file.try_clone()?;
        let wal = Arc::new(Wal {
            path,
            sync_mode: config.sync_mode,
            segment_bytes: config.wal_segment_bytes,
            checkpoint_every: config.checkpoint_every,
            inner: Mutex::new(WalInner {
                file,
                frame: Vec::new(),
                next_lsn: stats.max_lsn + 1,
                log_bytes: 0,
                commits_since_checkpoint: 0,
            }),
            sync_file,
            appended_lsn: AtomicU64::new(stats.max_lsn),
            sync_state: Mutex::new(SyncState {
                durable_lsn: stats.max_lsn,
                syncing: false,
            }),
            sync_cv: Condvar::new(),
            txn_gate: RwLock::new(()),
            next_txn: AtomicU64::new(0),
            cipher,
            imaged: Mutex::new(HashMap::new()),
        });
        // Everything replayed is in synced data files: start from an empty
        // log (plus a Checkpoint marker) rather than replaying again.
        wal.truncate_log()?;
        let reg = obs::global();
        reg.counter("wal.recovered_txns").add(stats.recovered_txns);
        reg.counter("wal.replayed_pages").add(stats.replayed_pages);
        reg.counter("wal.replayed_deltas")
            .add(stats.replayed_deltas);
        Ok((wal, stats))
    }

    /// Path of the log file (used by tests to corrupt the tail).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Register this log as the WAL-before-data hook of `pool`, the pool
    /// of data file `file`, and enable unlogged-page tracking (no-steal) on
    /// it. The file's pages start over with full images: images logged for
    /// an earlier file of that name (dropped, its checkpoint failed) are no
    /// base for a delta.
    pub fn attach(self: &Arc<Self>, pool: &BufferPool, file: &str) {
        self.imaged.lock().remove(file);
        pool.set_wal_hook(Arc::new(PoolHook {
            wal: Arc::clone(self),
            file: file.to_owned(),
        }));
    }

    /// Does `page` of `file` have a committed image in this log?
    fn imaged(&self, file: &str, page: PageId) -> bool {
        let imaged = self.imaged.lock();
        imaged
            .get(file)
            .is_some_and(|pages| pages.contains(&page.0))
    }

    /// Current log size in bytes.
    pub fn log_bytes(&self) -> u64 {
        self.inner.lock().log_bytes
    }

    /// Highest LSN known durable.
    pub fn durable_lsn(&self) -> u64 {
        self.sync_state.lock().durable_lsn
    }

    /// Append one record under the append lock; returns its LSN.
    fn append_record(&self, rec: &WalRecord) -> Result<u64> {
        let commit = matches!(rec, WalRecord::Commit { .. });
        self.append_frame(commit, |lsn, buf| record::write_payload(buf, lsn, rec))
    }

    /// Append one frame under the append lock; returns its LSN. `payload`
    /// is handed the LSN first — the commit path stamps it into the page
    /// whose image it is about to log — and writes the payload straight
    /// into the log's one reused frame buffer.
    fn append_frame(&self, commit: bool, payload: impl FnOnce(u64, &mut Vec<u8>)) -> Result<u64> {
        let mut inner = self.inner.lock();
        let lsn = inner.next_lsn;
        let mut frame = std::mem::take(&mut inner.frame);
        record::frame_into(&mut frame, |buf| payload(lsn, buf));
        // The injected fault fires *before* any byte reaches the file, so a
        // failed append leaves no torn frame: the LSN is not consumed and
        // the log is byte-identical to before the call. Real `write_all`
        // errors are never retried — the frame may be partially on disk,
        // and re-driving it would interleave two copies (the torn-tail
        // reader in `record` then stops at the first bad frame anyway).
        RetryPolicy::storage().run("wal.append", retry::is_transient_storage, || {
            if jaguar_common::fault::should_fail("wal.append") {
                return Err(JaguarError::Io(std::io::Error::other(
                    "injected fault at wal.append",
                )));
            }
            inner.file.write_all(&frame).map_err(JaguarError::from)
        })?;
        let bytes = frame.len() as u64;
        inner.next_lsn = lsn + 1;
        inner.log_bytes += bytes;
        inner.commits_since_checkpoint += u64::from(commit);
        inner.frame = frame;
        drop(inner);
        self.appended_lsn.fetch_max(lsn, Ordering::AcqRel);
        obs::global().counter("wal.bytes").add(bytes);
        Ok(lsn)
    }

    /// Append a Commit record, honouring torn-tail simulation: when armed,
    /// only half the frame reaches the file before the process aborts —
    /// recovery must then treat the transaction as uncommitted.
    fn append_commit(&self, txn: u64) -> Result<u64> {
        if fault::torn_tail_armed() {
            let mut inner = self.inner.lock();
            let lsn = inner.next_lsn;
            let frame = encode_frame(lsn, &WalRecord::Commit { txn });
            inner.file.write_all(&frame[..frame.len() / 2])?;
            inner.file.sync_data()?;
            eprintln!("jaguar-wal: torn tail simulated, aborting");
            std::process::abort();
        }
        self.append_record(&WalRecord::Commit { txn })
    }

    /// Log and commit every unlogged dirty page of `pool` as one
    /// transaction attributed to data file `file`. Returns the commit LSN,
    /// or `None` when there was nothing to commit.
    ///
    /// This is the WAL half of a statement commit: snapshot the pool's
    /// unlogged set, stamp each page with its record's LSN, append the
    /// records between `Begin`/`Commit` markers, make the commit durable
    /// per the configured [`SyncMode`], and only then retire the snapshot.
    /// The pages stay in the unlogged set — and therefore keep their
    /// no-steal protection — for the whole commit window, so a concurrent
    /// query can never evict one of them to a data file before the commit
    /// record is on stable storage. A failed commit retires nothing.
    pub fn commit_table(&self, file: &str, pool: &Arc<BufferPool>) -> Result<Option<u64>> {
        let _gate = self.txn_gate.read();
        let pages = pool.snapshot_unlogged();
        if pages.is_empty() {
            return Ok(None);
        }
        let span = obs::SpanTimer::new(obs::global().histogram("wal.commit_latency_us"));
        let txn = self.next_txn.fetch_add(1, Ordering::Relaxed) + 1;
        let result = self
            .log_pages(txn, file, pool, &pages)
            .and_then(|()| self.commit(txn));
        drop(span);
        let lsn = result?;
        self.retire(file, pool, &pages);
        Ok(Some(lsn))
    }

    /// Append `Begin` and one record per page of `pages`. A page is logged
    /// as a delta when it has a committed image earlier in this log and a
    /// base in the pool, and the ranges it must carry come to at most half
    /// a page; as its full image otherwise.
    fn log_pages(
        &self,
        txn: u64,
        file: &str,
        pool: &Arc<BufferPool>,
        pages: &[(PageId, u64)],
    ) -> Result<()> {
        self.append_record(&WalRecord::Begin { txn })?;
        fault::crash_point("wal.after_begin");
        let reg = obs::global();
        for (i, (pid, _gen)) in pages.iter().enumerate() {
            let handle = pool.fetch(*pid)?;
            let imaged = self.imaged(file, *pid);
            let mut delta = false;
            self.append_frame(false, |lsn, buf| {
                let mut guard = handle.write_nolog();
                set_page_lsn(&mut guard, lsn);
                pool.page_base(*pid, |base| {
                    // Carried even when an image is logged: a later delta
                    // must cover what this record may have committed.
                    let Some(ranges) = base.map(|b| b.carry(&guard)) else {
                        return;
                    };
                    let carried: usize = ranges.iter().map(|r| r.len()).sum();
                    if imaged && carried <= guard.len() / 2 {
                        let ranges = ranges.iter().map(|r| (r.start as u32, &guard[r.clone()]));
                        record::write_page_delta(buf, lsn, txn, file, pid.0, ranges);
                        delta = true;
                    }
                });
                if !delta {
                    // The pool frame stays plaintext; only the logged copy
                    // is sealed, matching what write_page would persist so
                    // replay writes it verbatim.
                    let seal = |image: &mut [u8]| {
                        if let Some(cipher) = &self.cipher {
                            DiskManager::seal_for_disk(cipher.as_ref(), *pid, image);
                        }
                    };
                    record::write_page_image(buf, lsn, txn, file, pid.0, &guard, seal);
                }
            })?;
            reg.counter(if delta {
                "wal.page_deltas"
            } else {
                "wal.page_images"
            })
            .inc();
            if i == 0 {
                fault::crash_point("wal.mid_images");
            }
        }
        fault::crash_point("wal.before_commit");
        Ok(())
    }

    /// Append `txn`'s `Commit` record and make it durable per the sync
    /// mode; returns its LSN.
    fn commit(&self, txn: u64) -> Result<u64> {
        let lsn = self.append_commit(txn)?;
        fault::crash_point("wal.after_commit_write");
        self.ensure_durable(lsn)?;
        fault::crash_point("wal.after_commit_sync");
        obs::global().counter("wal.commits").inc();
        Ok(lsn)
    }

    /// After the commit that logged `pages`: each now has a committed image
    /// in this log, and leaves the unlogged set unless it was mutated since
    /// the snapshot was taken.
    fn retire(&self, file: &str, pool: &BufferPool, pages: &[(PageId, u64)]) {
        if self.cipher.is_none() {
            let mut imaged = self.imaged.lock();
            let imaged = imaged.entry(file.to_owned()).or_default();
            imaged.extend(pages.iter().map(|(p, _)| p.0));
        }
        pool.commit_unlogged(pages);
    }

    /// Block until the log is durable at least up to `lsn` (group commit:
    /// one leader syncs for every waiter that arrived meanwhile). A no-op
    /// unless [`SyncMode::Full`] is configured — commits under `Normal`
    /// are left to the OS, to checkpoints, and to the write-back barrier.
    pub fn ensure_durable(&self, lsn: u64) -> Result<()> {
        if self.sync_mode != SyncMode::Full {
            return Ok(());
        }
        self.sync_to(lsn)
    }

    /// The WAL-before-data barrier: block until the log is durable at
    /// least up to `lsn` before a page stamped with that LSN may be
    /// written to its data file. Unlike the commit-path
    /// [`Wal::ensure_durable`], this syncs under [`SyncMode::Normal`] too —
    /// otherwise an evicted page could reach the data file while its log
    /// records still sit in OS buffers, and a power cut would persist
    /// effects that redo-only recovery cannot undo. Only the explicitly
    /// unsafe [`SyncMode::Off`] skips it.
    pub fn barrier_durable(&self, lsn: u64) -> Result<()> {
        if self.sync_mode == SyncMode::Off {
            return Ok(());
        }
        self.sync_to(lsn)
    }

    /// Group-commit sync loop shared by the commit path and the barrier.
    fn sync_to(&self, lsn: u64) -> Result<()> {
        let mut st = self.sync_state.lock();
        while st.durable_lsn < lsn {
            if st.syncing {
                self.sync_cv.wait(&mut st);
                continue;
            }
            st.syncing = true;
            drop(st);
            // Everything appended before this load rides along.
            let target = self.appended_lsn.load(Ordering::Acquire);
            // Fault-injectable group-commit fsync. The site is consulted on
            // every attempt: armed with a count, it models a transient
            // glitch the retry recovers from (the commit succeeds); armed
            // always-on, retries exhaust and the commit fails cleanly —
            // `durable_lsn` is not advanced, `syncing` is reset below, and
            // the next commit elects a fresh leader and succeeds.
            let res = RetryPolicy::storage().run("wal.fsync", retry::is_transient_storage, || {
                if jaguar_common::fault::should_fail("wal.fsync") {
                    return Err(JaguarError::Io(std::io::Error::other(
                        "injected fault at wal.fsync",
                    )));
                }
                self.sync_file.sync_data().map_err(JaguarError::from)
            });
            obs::global().counter("wal.fsyncs").inc();
            st = self.sync_state.lock();
            st.syncing = false;
            if res.is_ok() && target > st.durable_lsn {
                st.durable_lsn = target;
            }
            self.sync_cv.notify_all();
            res?;
        }
        Ok(())
    }

    /// Should the caller run a checkpoint? True once the log outgrows the
    /// configured segment size or enough commits have accumulated.
    pub fn should_checkpoint(&self) -> bool {
        let inner = self.inner.lock();
        inner.log_bytes >= self.segment_bytes
            || inner.commits_since_checkpoint >= self.checkpoint_every
    }

    /// Checkpoint: make the log durable, have `flush` write and sync every
    /// data file, then truncate the log. `flush` runs with new transactions
    /// excluded, so truncation can never orphan half a commit.
    pub fn checkpoint(&self, flush: impl FnOnce() -> Result<()>) -> Result<()> {
        let _gate = self.txn_gate.write();
        if self.sync_mode != SyncMode::Off {
            self.sync_file.sync_data()?;
            obs::global().counter("wal.fsyncs").inc();
        }
        flush()?;
        self.truncate_log()?;
        obs::global().counter("wal.checkpoints").inc();
        Ok(())
    }

    /// Reset the log to a single Checkpoint record.
    fn truncate_log(&self) -> Result<()> {
        self.imaged.lock().clear();
        let mut inner = self.inner.lock();
        inner.file.set_len(0)?;
        inner.file.seek(SeekFrom::Start(0))?;
        let lsn = inner.next_lsn;
        inner.next_lsn = lsn + 1;
        let frame = encode_frame(lsn, &WalRecord::Checkpoint);
        inner.file.write_all(&frame)?;
        inner.log_bytes = frame.len() as u64;
        inner.commits_since_checkpoint = 0;
        if self.sync_mode != SyncMode::Off {
            inner.file.sync_data()?;
        }
        drop(inner);
        self.appended_lsn.fetch_max(lsn, Ordering::AcqRel);
        self.sync_state.lock().durable_lsn = lsn;
        Ok(())
    }
}

/// Adapter giving the pool of one data file WAL-before-data enforcement,
/// and page bases where the log may write deltas.
struct PoolHook {
    wal: Arc<Wal>,
    file: String,
}

impl WalHook for PoolHook {
    fn before_page_write(&self, page_lsn: u64) -> Result<()> {
        self.wal.barrier_durable(page_lsn)
    }

    /// Only a page with a committed image in the log can be logged as a
    /// delta; bulk-loaded pages, new since the checkpoint, keep no base.
    fn wants_base(&self, page: PageId) -> bool {
        self.wal.imaged(&self.file, page)
    }
}

/// Validate a file id recorded in a page image: it must be a plain file
/// name inside the database directory, never a path that could escape it.
pub(crate) fn validate_file_id(file: &str) -> Result<()> {
    if file.is_empty()
        || file.contains('/')
        || file.contains('\\')
        || file.contains("..")
        || file.contains('\0')
    {
        return Err(JaguarError::Corruption(format!(
            "wal page image names suspicious file {file:?}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use jaguar_storage::DiskManager;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("jaguar-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Fault sites are process-global; tests that arm them (or append/sync,
    /// which consult them) run serialized.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|p| p.into_inner())
    }

    #[test]
    fn injected_transient_fsync_recovers_within_commit() {
        let _g = serial();
        let dir = tmpdir("fsync-transient");
        let mut config = cfg();
        config.sync_mode = SyncMode::Full;
        let (wal, _) = Wal::open(&dir, &config).unwrap();
        let disk = Arc::new(DiskManager::open(&dir.join("t.jag"), 256).unwrap());
        let pool = Arc::new(BufferPool::new(disk, 8));
        wal.attach(&pool, "t.jag");
        let h = pool.allocate().unwrap();
        h.write()[10] = 1;
        drop(h);
        jaguar_common::fault::arm("wal.fsync", 1);
        // One injected fsync failure; the retry recovers and the commit
        // lands durably.
        let lsn = wal.commit_table("t.jag", &pool).unwrap().unwrap();
        jaguar_common::fault::disarm("wal.fsync");
        assert!(wal.durable_lsn() >= lsn);
    }

    #[test]
    fn injected_permanent_fsync_fails_commit_cleanly_then_next_succeeds() {
        let _g = serial();
        let dir = tmpdir("fsync-permanent");
        let mut config = cfg();
        config.sync_mode = SyncMode::Full;
        let (wal, _) = Wal::open(&dir, &config).unwrap();
        let disk = Arc::new(DiskManager::open(&dir.join("t.jag"), 256).unwrap());
        let pool = Arc::new(BufferPool::new(disk, 8));
        wal.attach(&pool, "t.jag");
        let h = pool.allocate().unwrap();
        h.write()[10] = 2;
        drop(h);
        jaguar_common::fault::arm("wal.fsync", jaguar_common::fault::ALWAYS);
        let err = wal.commit_table("t.jag", &pool).unwrap_err();
        assert!(err.to_string().contains("injected"), "{err}");
        jaguar_common::fault::disarm("wal.fsync");
        // Clean failure: the page kept its no-steal protection and the next
        // commit elects a fresh sync leader and succeeds.
        assert_eq!(pool.snapshot_unlogged().len(), 1);
        wal.commit_table("t.jag", &pool).unwrap().unwrap();
        // The log is consistent: a reopen-with-replay sees committed txns.
        drop(wal);
        let (_wal, stats) = Wal::open(&dir, &cfg()).unwrap();
        assert!(stats.recovered_txns >= 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_append_fault_leaves_log_untorn() {
        let _g = serial();
        let dir = tmpdir("append-fault");
        let (wal, _) = Wal::open(&dir, &cfg()).unwrap();
        let disk = Arc::new(DiskManager::open(&dir.join("t.jag"), 256).unwrap());
        let pool = Arc::new(BufferPool::new(disk, 8));
        wal.attach(&pool, "t.jag");
        let h = pool.allocate().unwrap();
        h.write()[10] = 3;
        drop(h);
        let bytes_before = wal.log_bytes();
        jaguar_common::fault::arm("wal.append", jaguar_common::fault::ALWAYS);
        assert!(wal.commit_table("t.jag", &pool).is_err());
        jaguar_common::fault::disarm("wal.append");
        // The fault fires before any byte reaches the file: no torn frame.
        assert_eq!(wal.log_bytes(), bytes_before);
        wal.commit_table("t.jag", &pool).unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn cfg() -> Config {
        Config::default().with_page_size(256)
    }

    #[test]
    fn commit_and_replay_roundtrip() {
        let _g = serial();
        let dir = tmpdir("roundtrip");
        {
            let (wal, stats) = Wal::open(&dir, &cfg()).unwrap();
            assert_eq!(stats.recovered_txns, 0);
            let disk = Arc::new(DiskManager::open(&dir.join("t.jag"), 256).unwrap());
            let pool = Arc::new(BufferPool::new(disk, 8));
            wal.attach(&pool, "t.jag");
            let h = pool.allocate().unwrap();
            h.write()[64] = 42;
            drop(h);
            wal.commit_table("t.jag", &pool).unwrap().unwrap();
            // Simulate a crash: data file never flushed, log survives...
            // except the log was just truncated? No — commit appends after
            // open's truncation, so the images are present.
            assert!(wal.log_bytes() > 0);
        }
        // Wipe the data file to prove replay reconstructs it from the log.
        std::fs::write(dir.join("t.jag"), b"").unwrap();
        let (_wal, stats) = Wal::open(&dir, &cfg()).unwrap();
        assert_eq!(stats.recovered_txns, 1);
        assert!(stats.replayed_pages >= 1);
        let disk = DiskManager::open(&dir.join("t.jag"), 256).unwrap();
        let mut buf = vec![0u8; 256];
        disk.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf[64], 42);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn uncommitted_txn_not_replayed() {
        let _g = serial();
        let dir = tmpdir("uncommitted");
        {
            let (wal, _) = Wal::open(&dir, &cfg()).unwrap();
            // Hand-write a Begin + PageImage with no Commit.
            let mut inner = wal.inner.lock();
            let mut page = vec![0u8; 256];
            page[100] = 9;
            for rec in [
                WalRecord::Begin { txn: 50 },
                WalRecord::PageImage {
                    txn: 50,
                    file: "u.jag".into(),
                    page: 0,
                    data: page,
                },
            ] {
                let lsn = inner.next_lsn;
                inner.next_lsn += 1;
                let frame = encode_frame(lsn, &rec);
                inner.file.write_all(&frame).unwrap();
                inner.log_bytes += frame.len() as u64;
            }
        }
        let (_wal, stats) = Wal::open(&dir, &cfg()).unwrap();
        assert_eq!(stats.recovered_txns, 0);
        assert_eq!(stats.replayed_pages, 0);
        assert!(
            !dir.join("u.jag").exists() || {
                let dm = DiskManager::open(&dir.join("u.jag"), 256).unwrap();
                dm.page_count() == 0
            }
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_log() {
        let _g = serial();
        let dir = tmpdir("ckpt");
        let (wal, _) = Wal::open(&dir, &cfg()).unwrap();
        let disk = Arc::new(DiskManager::open(&dir.join("t.jag"), 256).unwrap());
        let pool = Arc::new(BufferPool::new(Arc::clone(&disk), 8));
        wal.attach(&pool, "t.jag");
        for _ in 0..5 {
            let h = pool.allocate().unwrap();
            h.write()[10] = 1;
            drop(h);
            wal.commit_table("t.jag", &pool).unwrap();
        }
        let before = wal.log_bytes();
        wal.checkpoint(|| {
            pool.flush_all()?;
            disk.sync()
        })
        .unwrap();
        assert!(wal.log_bytes() < before);
        // Replays nothing: data already synced, log truncated.
        drop(wal);
        let (_wal, stats) = Wal::open(&dir, &cfg()).unwrap();
        assert_eq!(stats.replayed_pages, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn should_checkpoint_by_commit_count() {
        let _g = serial();
        let dir = tmpdir("every");
        let mut config = cfg();
        config.checkpoint_every = 2;
        let (wal, _) = Wal::open(&dir, &config).unwrap();
        let disk = Arc::new(DiskManager::open(&dir.join("t.jag"), 256).unwrap());
        let pool = Arc::new(BufferPool::new(disk, 8));
        wal.attach(&pool, "t.jag");
        assert!(!wal.should_checkpoint());
        for _ in 0..2 {
            let h = pool.allocate().unwrap();
            h.write()[10] = 1;
            drop(h);
            wal.commit_table("t.jag", &pool).unwrap();
        }
        assert!(wal.should_checkpoint());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_under_concurrency() {
        let _g = serial();
        let dir = tmpdir("group");
        let mut config = cfg();
        config.sync_mode = SyncMode::Full;
        let (wal, _) = Wal::open(&dir, &config).unwrap();
        let disk = Arc::new(DiskManager::open(&dir.join("t.jag"), 256).unwrap());
        let pool = Arc::new(BufferPool::new(disk, 64));
        wal.attach(&pool, "t.jag");
        let mut threads = Vec::new();
        for _ in 0..4 {
            let wal = Arc::clone(&wal);
            let pool = Arc::clone(&pool);
            threads.push(std::thread::spawn(move || {
                let mut logged = 0;
                for _ in 0..10 {
                    let h = pool.allocate().unwrap();
                    h.write()[10] = 7;
                    drop(h);
                    // Another thread's commit may have logged this page
                    // already, leaving this one nothing to log.
                    logged += wal.commit_table("t.jag", &pool).unwrap().is_some() as u64;
                }
                logged
            }));
        }
        let logged: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert!(logged >= 1);
        // With batching, fsyncs can be far fewer than commits; correctness
        // here is that every commit survives a reopen-with-replay.
        drop(wal);
        let (_wal, stats) = Wal::open(&dir, &cfg()).unwrap();
        assert_eq!(stats.recovered_txns, logged);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn barrier_syncs_in_normal_mode() {
        let _g = serial();
        let dir = tmpdir("barrier");
        let mut config = cfg();
        config.sync_mode = SyncMode::Normal;
        let (wal, _) = Wal::open(&dir, &config).unwrap();
        let disk = Arc::new(DiskManager::open(&dir.join("t.jag"), 256).unwrap());
        let pool = Arc::new(BufferPool::new(disk, 8));
        wal.attach(&pool, "t.jag");
        let h = pool.allocate().unwrap();
        h.write()[10] = 3;
        drop(h);
        let lsn = wal.commit_table("t.jag", &pool).unwrap().unwrap();
        // Normal mode: the commit itself does not fsync…
        assert!(wal.durable_lsn() < lsn, "commit must not sync in Normal");
        // …but the write-back barrier must, or an evicted page could hit
        // the data file ahead of its (still OS-buffered) log records.
        wal.barrier_durable(lsn).unwrap();
        assert!(wal.durable_lsn() >= lsn, "barrier must sync in Normal");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_failure_keeps_no_steal_protection() {
        let _g = serial();
        let dir = tmpdir("failkeep");
        let (wal, _) = Wal::open(&dir, &cfg()).unwrap();
        let disk = Arc::new(DiskManager::open(&dir.join("t.jag"), 256).unwrap());
        let pool = Arc::new(BufferPool::new(disk, 8));
        wal.attach(&pool, "t.jag");
        let h = pool.allocate().unwrap();
        h.write()[10] = 1;
        drop(h);
        // Snapshot-based commit leaves the set intact until durability;
        // a successful commit retires it.
        assert_eq!(pool.snapshot_unlogged().len(), 1);
        wal.commit_table("t.jag", &pool).unwrap().unwrap();
        assert!(pool.snapshot_unlogged().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Fail `txn`'s commit at its `Commit` record, after its page records
    /// reached the log.
    fn fail_commit(wal: &Wal, txn: u64) {
        jaguar_common::fault::arm("wal.append", jaguar_common::fault::ALWAYS);
        assert!(wal.commit(txn).is_err());
        jaguar_common::fault::disarm("wal.append");
    }

    /// Log the pool's unlogged pages as a new transaction, without its
    /// `Commit`; returns the transaction, its snapshot and each page's
    /// bytes as logged.
    fn log_only(wal: &Wal, pool: &Arc<BufferPool>) -> (u64, Vec<(PageId, u64)>, Vec<Vec<u8>>) {
        let pages = pool.snapshot_unlogged();
        let txn = wal.next_txn.fetch_add(1, Ordering::Relaxed) + 1;
        wal.log_pages(txn, "t.jag", pool, &pages).unwrap();
        let bytes = pages
            .iter()
            .map(|(p, _)| pool.fetch(*p).unwrap().read().clone())
            .collect();
        (txn, pages, bytes)
    }

    /// Replay `dir`'s log and read back every page of `t.jag`.
    fn recover_pages(dir: &Path) -> (RecoveryStats, Vec<Vec<u8>>) {
        let stats = recover::replay(dir, 256).unwrap();
        let disk = DiskManager::open(&dir.join("t.jag"), 256).unwrap();
        let pages = (0..disk.page_count())
            .map(|p| {
                let mut buf = vec![0u8; 256];
                disk.read_page(PageId(p), &mut buf).unwrap();
                buf
            })
            .collect();
        (stats, pages)
    }

    /// Bytes 0..20 are the checksum, which a write-back reseals, and the
    /// page LSN, which an uncommitted record may have stamped on a page
    /// that another commit retired: neither is part of what a commit wrote.
    const USER: usize = 20;

    /// Two commits of one page interleave: the first changes bytes `x` and
    /// `y`, a write between them restores `x`, the second logs the page
    /// again. Whichever of the two commits, replay lands the bytes of the
    /// later committed record — the restored `x` included.
    #[test]
    fn interleaved_commits_of_one_page_replay_right_in_every_outcome() {
        let _g = serial();
        let (x, y) = (100, 200);
        for (ok1, ok2) in [(true, true), (true, false), (false, true), (false, false)] {
            let dir = tmpdir("interleave");
            let mut config = cfg();
            config.sync_mode = SyncMode::Off;
            let (wal, _) = Wal::open(&dir, &config).unwrap();
            let disk = Arc::new(DiskManager::open(&dir.join("t.jag"), 256).unwrap());
            let pool = Arc::new(BufferPool::new(disk, 4));
            wal.attach(&pool, "t.jag");
            let h = pool.allocate().unwrap();
            h.write()[x] = 1;
            wal.commit_table("t.jag", &pool).unwrap().unwrap(); // the image
            {
                let mut page = h.write();
                page[x] = 2;
                page[y] = 2;
            }
            let (t1, snap1, _) = log_only(&wal, &pool);
            h.write()[x] = 1;
            let (t2, snap2, _) = log_only(&wal, &pool);
            for (txn, snap, ok) in [(t1, &snap1, ok1), (t2, &snap2, ok2)] {
                match ok {
                    true => {
                        wal.commit(txn).unwrap();
                        wal.retire("t.jag", &pool, snap);
                    }
                    false => fail_commit(&wal, txn),
                }
            }
            drop((h, pool, wal));
            let (stats, pages) = recover_pages(&dir);
            let want = match (ok1, ok2) {
                (_, true) => (1, 2),
                (true, false) => (2, 2),
                (false, false) => (1, 0),
            };
            let outcome = format!("t1 {ok1}, t2 {ok2}");
            assert_eq!((pages[0][x], pages[0][y]), want, "{outcome}");
            assert_eq!(
                stats.replayed_deltas,
                u64::from(ok1) + u64::from(ok2),
                "{outcome}"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    /// Seeded sequences of byte writes on a four-frame pool over up to
    /// eight pages — commits, commits failed before their records and after
    /// them, interleaved commits of the same pages, evictions and
    /// checkpoints — then a crash (the pool dropped unflushed) and replay:
    /// every page of the data file must hold the bytes its last committed
    /// record logged.
    #[test]
    fn replay_lands_every_page_on_its_last_committed_bytes() {
        let _g = serial();
        let deltas_before = obs::global().counter("wal.page_deltas").get();
        let mut replayed_deltas = 0;
        let dir = tmpdir("differential");
        for case in 0..256u64 {
            let mut rng = jaguar_common::rng::SplitMix64::new(0xD17A + case);
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            let mut config = cfg();
            config.sync_mode = SyncMode::Off;
            let (wal, _) = Wal::open(&dir, &config).unwrap();
            let disk = Arc::new(DiskManager::open(&dir.join("t.jag"), 256).unwrap());
            let pool = Arc::new(BufferPool::new(Arc::clone(&disk), 4));
            wal.attach(&pool, "t.jag");
            // The model: each page's bytes as its last committed record
            // logged them.
            let mut committed: Vec<Vec<u8>> = Vec::new();
            let commit = |pool: &Arc<BufferPool>, committed: &mut Vec<Vec<u8>>| {
                let pages = pool.snapshot_unlogged();
                wal.commit_table("t.jag", pool).unwrap();
                for (p, _) in pages {
                    committed[p.0 as usize] = pool.fetch(p).unwrap().read().clone();
                }
            };
            for _ in 0..30 {
                match rng.next_below(10) {
                    // Allocate a page, or write one to three bytes of one,
                    // some of them back to their committed values.
                    0..=4 => {
                        if committed.len() < 8 && rng.next_below(4) == 0 {
                            let h = pool.allocate().unwrap();
                            committed.push(h.read().clone());
                            continue;
                        }
                        if committed.is_empty() {
                            continue;
                        }
                        let p = PageId(rng.next_below(committed.len() as u64) as u32);
                        let unlogged = pool.snapshot_unlogged();
                        if unlogged.len() >= 3 && unlogged.iter().all(|(u, _)| *u != p) {
                            commit(&pool, &mut committed); // keep a frame free
                        }
                        let h = pool.fetch(p).unwrap();
                        let mut page = h.write();
                        for _ in 0..=rng.next_below(3) {
                            let at = USER + rng.next_below((256 - USER) as u64) as usize;
                            page[at] = match rng.next_below(3) {
                                0 => committed[p.0 as usize][at],
                                _ => rng.next_u64() as u8,
                            };
                        }
                    }
                    5 | 6 => commit(&pool, &mut committed),
                    // A commit that fails at its Begin record.
                    7 => {
                        jaguar_common::fault::arm("wal.append", jaguar_common::fault::ALWAYS);
                        let failed = wal.commit_table("t.jag", &pool);
                        jaguar_common::fault::disarm("wal.append");
                        assert!(failed.is_err() || pool.snapshot_unlogged().is_empty());
                    }
                    // Two commits of the unlogged pages, with a write between
                    // them restoring a byte the first changed; each commits
                    // or not, in either order. (A commit failing at its
                    // Commit record leaves the log as one never finished:
                    // the injected fault fires before any byte is written.)
                    8 => {
                        let (t1, snap1, bytes1) = log_only(&wal, &pool);
                        if let Some((p, _)) = snap1.first() {
                            let h = pool.fetch(*p).unwrap();
                            let mut page = h.write();
                            let was = &committed[p.0 as usize];
                            if let Some(at) = (USER..256).find(|&i| page[i] != was[i]) {
                                page[at] = was[at];
                            }
                        }
                        let (t2, snap2, bytes2) = log_only(&wal, &pool);
                        let (ok1, ok2) = (rng.next_below(2) == 0, rng.next_below(2) == 0);
                        let mut finish = [(t1, &snap1, ok1), (t2, &snap2, ok2)];
                        if rng.next_below(2) == 0 {
                            finish.reverse();
                        }
                        for (txn, snap, _) in finish.into_iter().filter(|f| f.2) {
                            wal.commit(txn).unwrap();
                            wal.retire("t.jag", &pool, snap);
                        }
                        // Log order decides: t2's records follow t1's.
                        for (snap, bytes, ok) in [(&snap1, bytes1, ok1), (&snap2, bytes2, ok2)] {
                            for ((p, _), b) in snap.iter().zip(bytes).filter(|_| ok) {
                                committed[p.0 as usize] = b;
                            }
                        }
                    }
                    // A checkpoint, with nothing left unlogged.
                    _ => {
                        commit(&pool, &mut committed);
                        wal.checkpoint(|| {
                            pool.flush_all()?;
                            disk.sync()
                        })
                        .unwrap();
                    }
                }
            }
            drop((pool, disk, wal));
            let (stats, pages) = recover_pages(&dir);
            replayed_deltas += stats.replayed_deltas;
            assert_eq!(pages.len(), committed.len(), "case {case}");
            for (p, (got, want)) in pages.iter().zip(&committed).enumerate() {
                assert_eq!(got[USER..], want[USER..], "case {case}, page {p}");
            }
        }
        let deltas = obs::global().counter("wal.page_deltas").get() - deltas_before;
        assert!(
            deltas > 250 && replayed_deltas > 50,
            "{deltas} {replayed_deltas}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_id_validation() {
        assert!(validate_file_id("events.jag").is_ok());
        for bad in ["", "../x.jag", "a/b.jag", "a\\b.jag", "nul\0.jag"] {
            assert!(validate_file_id(bad).is_err(), "{bad:?}");
        }
    }
}
