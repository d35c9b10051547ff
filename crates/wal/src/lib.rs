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
//!   diffed against the pool's [`jaguar_storage::buffer::PageBase`]).
//!   Recovery replays the records of *committed* transactions in LSN order
//!   and discards the rest.
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
//! - **A storage error stops the log.** The first failed log append, log
//!   sync or checkpoint is recorded, and from then on every commit, sync
//!   and checkpoint is refused, naming it ([`Wal::check_poison`]).
//!   Reopening, which replays and truncates the log, is the only way back.
//!
//! The log format and torn-tail-tolerant reader live in [`record`]; named
//! crash points and torn-write simulation for the recovery harness live in
//! [`fault`]; the redo pass lives in [`recover`].

pub mod fault;
pub mod record;
pub mod recover;

use std::collections::{HashMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use jaguar_common::config::{Config, SyncMode};
use jaguar_common::error::{JaguarError, Result};
use jaguar_common::ids::PageId;
use jaguar_common::obs;
use jaguar_storage::page::set_page_lsn;
use jaguar_storage::{BufferPool, WalHook};
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
    /// Per data file, the pages with a committed image in the current log:
    /// only these may be logged as deltas. Emptied when the log is.
    imaged: Mutex<HashMap<String, HashSet<u32>>>,
    /// The first failed log append, log sync or checkpoint. A failed fsync
    /// may drop the log pages it could not write, and a later fsync that
    /// succeeds would then acknowledge commits behind that hole (Rebello
    /// et al., ATC 2020); a failed append may leave a torn frame that
    /// replay stops at. So once set, the log takes nothing more.
    poison: OnceLock<String>,
}

impl Wal {
    /// Open the log for `dir`, first running crash recovery: committed page
    /// records in the existing log are replayed into the data files, the
    /// data files are synced, and a log that held more than its Checkpoint
    /// record is truncated. Returns the live log plus what recovery did
    /// (also mirrored to `wal.*` metrics).
    pub fn open(dir: &Path, config: &Config) -> Result<(Arc<Wal>, RecoveryStats)> {
        let stats = recover::replay(dir, config.page_size)?;
        let path = dir.join(WAL_FILE);
        // Every write lands at the end of the file, wherever open or the
        // last truncation left it.
        let file = OpenOptions::new().append(true).create(true).open(&path)?;
        let log_bytes = file.metadata()?.len();
        let sync_file = file.try_clone()?;
        let wal = Arc::new(Wal {
            path,
            sync_mode: config.sync_mode,
            segment_bytes: config.wal_segment_bytes,
            inner: Mutex::new(WalInner {
                file,
                frame: Vec::new(),
                next_lsn: stats.max_lsn + 1,
                log_bytes,
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
            imaged: Mutex::new(HashMap::new()),
            poison: OnceLock::new(),
        });
        // A log that is missing, empty or only the Checkpoint record every
        // truncation starts it with (a clean close leaves one) is kept as it
        // is, so opening writes and syncs nothing. Any other log is in the
        // synced data files now: start over from a Checkpoint record rather
        // than replay it again.
        if stats.scanned_records > 1 || stats.torn_bytes > 0 {
            wal.truncate_log()?;
        }
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
    /// it.
    pub fn attach(self: &Arc<Self>, pool: &BufferPool, file: &str) {
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

    /// Fail if a storage error stopped this log, naming that first error.
    pub fn check_poison(&self) -> Result<()> {
        match self.poison.get() {
            None => Ok(()),
            Some(first) => Err(JaguarError::Storage(format!(
                "the log stopped at an earlier storage error ({first}); \
                 reopen the database to recover"
            ))),
        }
    }

    /// Pass `res` through; an error first stops the log, if nothing has.
    fn poison_on<T>(&self, res: Result<T>) -> Result<T> {
        if let Err(e) = &res {
            self.poison.get_or_init(|| e.to_string());
        }
        res
    }

    /// Append one record under the append lock; returns its LSN.
    fn append_record(&self, rec: &WalRecord) -> Result<u64> {
        self.append_frame(|lsn, buf| record::write_payload(buf, lsn, rec))
    }

    /// Append one frame under the append lock; returns its LSN. `payload`
    /// is handed the LSN first — the commit path stamps it into the page
    /// whose image it is about to log — and writes the payload straight
    /// into the log's one reused frame buffer.
    fn append_frame(&self, payload: impl FnOnce(u64, &mut Vec<u8>)) -> Result<u64> {
        let mut inner = self.inner.lock();
        self.check_poison()?;
        let lsn = inner.next_lsn;
        let mut frame = std::mem::take(&mut inner.frame);
        record::frame_into(&mut frame, |buf| payload(lsn, buf));
        // The injected fault fires *before* any byte reaches the file, so
        // the log is byte-identical to before the call. A real `write_all`
        // error may leave part of the frame in the file, and replay stops
        // at a torn frame, so either failure stops the log.
        let written = fault::check("wal.append").and_then(|()| inner.file.write_all(&frame));
        self.poison_on(written.map_err(JaguarError::from))?;
        let bytes = frame.len() as u64;
        inner.next_lsn = lsn + 1;
        inner.log_bytes += bytes;
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
        self.check_poison()?;
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
            self.append_frame(|lsn, buf| {
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
                    record::write_page_image(buf, lsn, txn, file, pid.0, &guard);
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
        // `imaged` is released before the pool's unlogged set is locked:
        // the pool's `note_write` takes the two in the other order.
        (self.imaged.lock().entry(file.to_owned()).or_default())
            .extend(pages.iter().map(|(p, _)| p.0));
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
    /// Refused once the log is stopped: a waiter woken by a failed sync
    /// must not elect itself leader and sync over the lost log pages.
    fn sync_to(&self, lsn: u64) -> Result<()> {
        let mut st = self.sync_state.lock();
        loop {
            self.check_poison()?;
            if st.durable_lsn >= lsn {
                return Ok(());
            }
            if st.syncing {
                self.sync_cv.wait(&mut st);
                continue;
            }
            st.syncing = true;
            drop(st);
            // Everything appended before this load rides along.
            let target = self.appended_lsn.load(Ordering::Acquire);
            let res = self.sync_log();
            st = self.sync_state.lock();
            st.syncing = false;
            if res.is_ok() && target > st.durable_lsn {
                st.durable_lsn = target;
            }
            self.sync_cv.notify_all();
            res?;
        }
    }

    /// One `fdatasync` of the log, at fault site `wal.fsync`. A failure
    /// stops the log.
    fn sync_log(&self) -> Result<()> {
        let res = fault::check("wal.fsync").and_then(|()| self.sync_file.sync_data());
        obs::global().counter("wal.fsyncs").inc();
        self.poison_on(res.map_err(JaguarError::from))
    }

    /// Should the caller run a checkpoint? True once the log outgrows the
    /// configured segment size.
    pub fn should_checkpoint(&self) -> bool {
        self.inner.lock().log_bytes >= self.segment_bytes
    }

    /// Checkpoint: make the log durable, have `flush` write and sync every
    /// data file, then truncate the log. `flush` runs with new transactions
    /// excluded, so truncation can never orphan half a commit. Any failure
    /// stops the log: a data file whose write or sync failed may have lost
    /// pages that only the log still holds.
    pub fn checkpoint(&self, flush: impl FnOnce() -> Result<()>) -> Result<()> {
        let _gate = self.txn_gate.write();
        self.check_poison()?;
        let res = (|| {
            if self.sync_mode != SyncMode::Off {
                self.sync_log()?;
            }
            flush()?;
            self.truncate_log()
        })();
        self.poison_on(res)?;
        obs::global().counter("wal.checkpoints").inc();
        Ok(())
    }

    /// Reset the log to a single Checkpoint record.
    fn truncate_log(&self) -> Result<()> {
        self.imaged.lock().clear();
        let mut inner = self.inner.lock();
        inner.file.set_len(0)?;
        let lsn = inner.next_lsn;
        inner.next_lsn = lsn + 1;
        let frame = encode_frame(lsn, &WalRecord::Checkpoint);
        inner.file.write_all(&frame)?;
        inner.log_bytes = frame.len() as u64;
        if self.sync_mode != SyncMode::Off {
            self.sync_log()?;
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

    /// A log, a data file `t.jag` and its pool with one unlogged page.
    fn one_page(dir: &Path, config: &Config) -> (Arc<Wal>, Arc<BufferPool>) {
        let (wal, _) = Wal::open(dir, config).unwrap();
        let disk = Arc::new(DiskManager::open(&dir.join("t.jag"), 256).unwrap());
        let pool = Arc::new(BufferPool::new(disk, 8));
        wal.attach(&pool, "t.jag");
        pool.allocate().unwrap().write()[10] = 2;
        (wal, pool)
    }

    /// A transient (one-shot) fsync fault is not retried within the
    /// commit: the commit fails and stops the log, and the next commit,
    /// sync and checkpoint are refused, naming it, even though the disk
    /// works again. The reopen recovers the failed commit, whose records
    /// reached the file before the fsync failed: it was in doubt, not lost.
    #[test]
    fn injected_transient_fsync_recovers_within_commit() {
        let _g = serial();
        let dir = tmpdir("fsync-transient");
        let mut config = cfg();
        config.sync_mode = SyncMode::Full;
        let (wal, pool) = one_page(&dir, &config);
        jaguar_common::fault::arm("wal.fsync", 1);
        let err = wal.commit_table("t.jag", &pool).unwrap_err().to_string();
        assert!(err.contains("injected fault at wal.fsync"), "{err}");
        let refusals = [
            wal.commit_table("t.jag", &pool).map(|_| ()),
            wal.barrier_durable(1),
            wal.checkpoint(|| Ok(())),
        ];
        for refused in refusals {
            let refused = refused.unwrap_err().to_string();
            assert!(
                refused.contains("stopped") && refused.contains(&err),
                "{refused}"
            );
        }
        drop((pool, wal));
        let (_wal, stats) = Wal::open(&dir, &config).unwrap();
        assert_eq!(stats.recovered_txns, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A permanent fsync fault fails the commit cleanly: the page keeps
    /// its no-steal protection and the log stops, so the next commit in
    /// this process is refused without reaching the fault site. Once the
    /// fault clears, the next commit after a reopen succeeds durably.
    #[test]
    fn injected_permanent_fsync_fails_commit_cleanly_then_next_succeeds() {
        let _g = serial();
        let dir = tmpdir("fsync-permanent");
        let mut config = cfg();
        config.sync_mode = SyncMode::Full;
        let (wal, pool) = one_page(&dir, &config);
        jaguar_common::fault::arm("wal.fsync", jaguar_common::fault::ALWAYS);
        let err = wal.commit_table("t.jag", &pool).unwrap_err().to_string();
        assert!(err.contains("injected fault at wal.fsync"), "{err}");
        assert_eq!(pool.snapshot_unlogged().len(), 1, "no-steal kept");
        let refused = wal.commit_table("t.jag", &pool).unwrap_err().to_string();
        jaguar_common::fault::disarm("wal.fsync");
        assert!(
            refused.contains("stopped") && refused.contains(&err),
            "{refused}"
        );
        drop((pool, wal));
        let (wal, stats) = Wal::open(&dir, &config).unwrap();
        assert_eq!(stats.recovered_txns, 1, "the failed commit was in doubt");
        drop(wal);
        let (wal, pool) = one_page(&dir, &config);
        let lsn = wal.commit_table("t.jag", &pool).unwrap().unwrap();
        assert!(wal.durable_lsn() >= lsn);
        drop((pool, wal));
        let (_wal, stats) = Wal::open(&dir, &config).unwrap();
        assert_eq!(stats.recovered_txns, 1, "the commit after the reopen");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_append_fault_leaves_log_untorn() {
        let _g = serial();
        let dir = tmpdir("append-fault");
        let (wal, pool) = one_page(&dir, &cfg());
        let bytes_before = wal.log_bytes();
        jaguar_common::fault::arm("wal.append", 1);
        let err = wal.commit_table("t.jag", &pool).unwrap_err().to_string();
        // The fault fires before any byte reaches the file: no torn frame.
        assert_eq!(wal.log_bytes(), bytes_before);
        assert_eq!(std::fs::metadata(wal.path()).unwrap().len(), bytes_before);
        let refused = wal.commit_table("t.jag", &pool).unwrap_err().to_string();
        assert!(refused.contains(&err), "{refused}");
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

    /// The log's size alone triggers a checkpoint, however few commits
    /// made it, and the checkpoint resets the trigger.
    #[test]
    fn should_checkpoint_by_log_size() {
        let _g = serial();
        let dir = tmpdir("every");
        let mut config = cfg();
        config.wal_segment_bytes = 3 * 256;
        let (wal, _) = Wal::open(&dir, &config).unwrap();
        let disk = Arc::new(DiskManager::open(&dir.join("t.jag"), 256).unwrap());
        let pool = Arc::new(BufferPool::new(disk.clone(), 8));
        wal.attach(&pool, "t.jag");
        assert!(!wal.should_checkpoint());
        // A commit of one page image logs a little over 256 bytes.
        for commits in 1..=3 {
            let h = pool.allocate().unwrap();
            h.write()[10] = 1;
            drop(h);
            wal.commit_table("t.jag", &pool).unwrap();
            let bytes = wal.log_bytes();
            assert_eq!(wal.should_checkpoint(), commits == 3, "{bytes} bytes");
        }
        wal.checkpoint(|| {
            pool.flush_all()?;
            disk.sync()
        })
        .unwrap();
        assert!(!wal.should_checkpoint());
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
    /// later committed record — the restored `x` included. A failed commit
    /// stops the log, so the successful one finishes first.
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
            let mut finish = [(t1, &snap1, ok1), (t2, &snap2, ok2)];
            finish.sort_by_key(|f| !f.2);
            for (txn, snap, ok) in finish {
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
    /// eight pages — commits, commits never finished after their records,
    /// interleaved commits of the same pages, evictions and checkpoints —
    /// then a crash (the pool dropped unflushed) and replay: every page of
    /// the data file must hold the bytes its last committed record logged.
    /// A commit that fails at its Begin record stops the log, so it ends
    /// its sequence: the crash and replay follow.
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
            for _ in 0..40 {
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
                        jaguar_common::fault::arm("wal.append", 1);
                        let failed = wal.commit_table("t.jag", &pool);
                        jaguar_common::fault::disarm("wal.append");
                        if failed.is_err() {
                            break;
                        }
                    }
                    // Two commits of the unlogged pages, with a write between
                    // them restoring a byte the first changed; each commits
                    // or is never finished, in either order.
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
