//! # jaguar-wal — write-ahead logging, checkpointing, crash recovery
//!
//! PREDATOR inherited durability from the Shore storage manager; this crate
//! is the equivalent substrate for `jaguar-storage`. It implements an
//! ARIES-lite, redo-only protocol:
//!
//! - **Physical redo.** Each committed statement logs the full after-image
//!   of every page it touched ([`record::WalRecord::PageImage`]), bracketed
//!   by `Begin`/`Commit` markers. Recovery replays images of *committed*
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

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jaguar_common::config::{Config, SyncMode};
use jaguar_common::error::{JaguarError, Result};
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
    /// verbatim without the key.
    cipher: Option<Arc<dyn PageCipher>>,
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
        });
        // Everything replayed is in synced data files: start from an empty
        // log (plus a Checkpoint marker) rather than replaying again.
        wal.truncate_log()?;
        let reg = obs::global();
        reg.counter("wal.recovered_txns").add(stats.recovered_txns);
        reg.counter("wal.replayed_pages").add(stats.replayed_pages);
        Ok((wal, stats))
    }

    /// Path of the log file (used by tests to corrupt the tail).
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Register this log as the buffer pool's WAL-before-data hook and
    /// enable unlogged-page tracking (no-steal) on the pool.
    pub fn attach(self: &Arc<Self>, pool: &BufferPool) {
        pool.set_wal_hook(Arc::new(PoolHook(Arc::clone(self))));
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
    /// images between `Begin`/`Commit` markers, make the commit durable
    /// per the configured [`SyncMode`], and only then retire the snapshot.
    /// The pages stay in the unlogged set — and therefore keep their
    /// no-steal protection — for the whole commit window, so a concurrent
    /// query can never evict one of them to a data file before the commit
    /// record is on stable storage.
    pub fn commit_table(&self, file: &str, pool: &Arc<BufferPool>) -> Result<Option<u64>> {
        let _gate = self.txn_gate.read();
        let pages = pool.snapshot_unlogged();
        if pages.is_empty() {
            return Ok(None);
        }
        let reg = obs::global();
        let span = obs::SpanTimer::new(reg.histogram("wal.commit_latency_us"));
        let result = (|| {
            let txn = self.next_txn.fetch_add(1, Ordering::Relaxed) + 1;
            self.append_record(&WalRecord::Begin { txn })?;
            fault::crash_point("wal.after_begin");
            for (i, (pid, _gen)) in pages.iter().enumerate() {
                let handle = pool.fetch(*pid)?;
                self.append_frame(false, |lsn, buf| {
                    let mut guard = handle.write_nolog();
                    set_page_lsn(&mut guard, lsn);
                    // The pool frame stays plaintext; only the logged copy
                    // is sealed, matching what write_page would persist so
                    // replay writes it verbatim.
                    let seal = |image: &mut [u8]| {
                        if let Some(cipher) = &self.cipher {
                            DiskManager::seal_for_disk(cipher.as_ref(), *pid, image);
                        }
                    };
                    record::write_page_image(buf, lsn, txn, file, pid.0, &guard, seal);
                })?;
                if i == 0 {
                    fault::crash_point("wal.mid_images");
                }
            }
            fault::crash_point("wal.before_commit");
            let lsn = self.append_commit(txn)?;
            fault::crash_point("wal.after_commit_write");
            self.ensure_durable(lsn)?;
            fault::crash_point("wal.after_commit_sync");
            reg.counter("wal.commits").inc();
            Ok(lsn)
        })();
        drop(span);
        match result {
            Ok(lsn) => {
                // With the commit durable, the pages may give up their
                // no-steal protection. A page mutated since its image was
                // logged keeps it (its generation moved on) and is logged
                // again by the next commit.
                pool.commit_unlogged(&pages);
                Ok(Some(lsn))
            }
            // The pages never left the unlogged set, so their no-steal
            // protection is intact; nothing to restore.
            Err(e) => Err(e),
        }
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

/// Adapter giving the buffer pool WAL-before-data enforcement.
struct PoolHook(Arc<Wal>);

impl WalHook for PoolHook {
    fn before_page_write(&self, page_lsn: u64) -> Result<()> {
        self.0.barrier_durable(page_lsn)
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
    use jaguar_common::ids::PageId;
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
        wal.attach(&pool);
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
        wal.attach(&pool);
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
        wal.attach(&pool);
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
            wal.attach(&pool);
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
        wal.attach(&pool);
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
        wal.attach(&pool);
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
        wal.attach(&pool);
        let mut threads = Vec::new();
        for _ in 0..4 {
            let wal = Arc::clone(&wal);
            let pool = Arc::clone(&pool);
            threads.push(std::thread::spawn(move || {
                for _ in 0..10 {
                    let h = pool.allocate().unwrap();
                    h.write()[10] = 7;
                    drop(h);
                    wal.commit_table("t.jag", &pool).unwrap();
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        // With batching, fsyncs can be far fewer than commits; correctness
        // here is that every commit survives a reopen-with-replay.
        drop(wal);
        let (_wal, stats) = Wal::open(&dir, &cfg()).unwrap();
        assert_eq!(stats.recovered_txns, 40);
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
        wal.attach(&pool);
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
        wal.attach(&pool);
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

    #[test]
    fn file_id_validation() {
        assert!(validate_file_id("events.jag").is_ok());
        for bad in ["", "../x.jag", "a/b.jag", "a\\b.jag", "nul\0.jag"] {
            assert!(validate_file_id(bad).is_err(), "{bad:?}");
        }
    }
}
