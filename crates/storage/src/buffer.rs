//! The buffer pool: a fixed-capacity page cache with LRU eviction,
//! pin counting, and dirty write-back.
//!
//! Access pattern:
//!
//! ```ignore
//! let handle = pool.fetch(page_id)?;       // pins the page
//! let bytes  = handle.read();              // RwLock read guard
//! let bytes  = handle.write();             // RwLock write guard, marks dirty
//! drop(handle);                            // unpins
//! ```
//!
//! A pinned page is never evicted; an unpinned dirty page is written back
//! when its frame is reclaimed or on [`BufferPool::flush_all`]; an unpinned
//! clean page is simply dropped. Only [`PageHandle::write`] makes a page
//! dirty: readers take the shared latch and leave no trace.
//!
//! Unpinned frames sit on an intrusive LRU list ordered by when their last
//! pin was released, so a miss takes its victim from the head of the list
//! instead of sweeping every frame, and reads the new page into the
//! victim's own buffer.
//!
//! ## WAL integration
//!
//! When a write-ahead log is attached ([`BufferPool::set_wal_hook`]) the
//! pool enforces two recovery invariants:
//!
//! - **No-steal.** Every mutation through [`PageHandle::write`] records the
//!   page in an *unlogged* set; unlogged dirty pages are never evicted or
//!   flushed, so uncommitted data cannot reach a data file. The commit path
//!   snapshots the set ([`BufferPool::snapshot_unlogged`]), logs the images
//!   (stamping LSNs through [`PageHandle::write_nolog`]), and retires the
//!   snapshot only once the commit is durable
//!   ([`BufferPool::commit_unlogged`]) — pages keep their no-steal
//!   protection for the whole commit window.
//! - **WAL-before-data.** Before a (logged) dirty page is written back, the
//!   hook is invoked with the page's on-page LSN so the log can be made
//!   durable at least that far first.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::ids::PageId;
use jaguar_common::obs;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::disk::DiskManager;
use crate::page::page_lsn;

/// Write-ahead-log callback invoked before a dirty page is written back to
/// its data file. Implemented by `jaguar-wal`; the trait lives here so the
/// storage crate stays free of a WAL dependency.
pub trait WalHook: Send + Sync {
    /// Make the log durable at least up to `page_lsn` (the LSN stamped on
    /// the page about to be written). Erroring aborts the write-back.
    fn before_page_write(&self, page_lsn: u64) -> Result<()>;
}

/// The part of a frame a [`PageHandle`] shares with the pool. Allocated
/// once per frame and reused for every page the frame ever holds.
struct FrameData {
    bytes: RwLock<Vec<u8>>,
    dirty: AtomicBool,
}

/// "No frame": end of the LRU list, or a frame not on it.
const NIL: usize = usize::MAX;

struct Frame {
    page: PageId,
    data: Arc<FrameData>,
    pins: usize,
    /// Neighbours on the LRU list (meaningful while `pins == 0`).
    prev: usize,
    next: usize,
}

struct PoolInner {
    frames: Vec<Frame>,
    /// page id -> index into `frames`
    map: HashMap<PageId, usize>,
    /// Unpinned frames, least recently unpinned first.
    lru_head: usize,
    lru_tail: usize,
}

impl PoolInner {
    fn lru_unlink(&mut self, idx: usize) {
        let (prev, next) = (self.frames[idx].prev, self.frames[idx].next);
        match prev {
            NIL => self.lru_head = next,
            p => self.frames[p].next = next,
        }
        match next {
            NIL => self.lru_tail = prev,
            n => self.frames[n].prev = prev,
        }
    }

    fn lru_push_back(&mut self, idx: usize) {
        let tail = self.lru_tail;
        self.frames[idx].prev = tail;
        self.frames[idx].next = NIL;
        match tail {
            NIL => self.lru_head = idx,
            t => self.frames[t].next = idx,
        }
        self.lru_tail = idx;
    }

    /// Pin frame `idx` (taking it off the LRU list on the first pin).
    fn pin(&mut self, idx: usize) {
        if self.frames[idx].pins == 0 {
            self.lru_unlink(idx);
        }
        self.frames[idx].pins += 1;
    }
}

/// Cache statistics, exposed for the calibration experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub writebacks: u64,
}

/// A fixed-size page cache over a [`DiskManager`].
pub struct BufferPool {
    disk: Arc<DiskManager>,
    capacity: usize,
    inner: Mutex<PoolInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    writebacks: AtomicU64,
    /// WAL-before-data callback; also switches on unlogged tracking.
    wal_hook: Mutex<Option<Arc<dyn WalHook>>>,
    /// Fast gate checked on every `PageHandle::write`.
    track_unlogged: AtomicBool,
    /// Dirty pages whose latest mutation has not been logged yet, each with
    /// a generation counter bumped on every tracked write. These are
    /// pinned-in-spirit: never evicted, never flushed (no-steal).
    unlogged: Mutex<HashMap<PageId, u64>>,
    /// Ticks when a fetch/unpin finds the central pool latch held by
    /// another thread — the first place parallel scans bottleneck.
    latch_waits: Arc<obs::Counter>,
}

impl BufferPool {
    pub fn new(disk: Arc<DiskManager>, capacity: usize) -> BufferPool {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            disk,
            capacity,
            inner: Mutex::new(PoolInner {
                frames: Vec::new(),
                map: HashMap::new(),
                lru_head: NIL,
                lru_tail: NIL,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            writebacks: AtomicU64::new(0),
            wal_hook: Mutex::new(None),
            track_unlogged: AtomicBool::new(false),
            unlogged: Mutex::new(HashMap::new()),
            latch_waits: obs::global().counter("storage.bufferpool.latch_waits"),
        }
    }

    /// Take the central pool latch, counting the acquisition as a contended
    /// wait when another thread holds it right now.
    fn latch(&self) -> MutexGuard<'_, PoolInner> {
        match self.inner.try_lock() {
            Some(g) => g,
            None => {
                self.latch_waits.inc();
                self.inner.lock()
            }
        }
    }

    /// Attach a write-ahead log: enables unlogged-page tracking (no-steal)
    /// and WAL-before-data enforcement on every write-back.
    pub fn set_wal_hook(&self, hook: Arc<dyn WalHook>) {
        *self.wal_hook.lock() = Some(hook);
        self.track_unlogged.store(true, Ordering::Release);
    }

    /// Snapshot the current unlogged-page set (sorted, for deterministic
    /// log contents) together with each page's mutation generation. The
    /// pages *stay* in the set — and therefore keep their no-steal
    /// protection against eviction and flushing — until the commit path,
    /// after making the transaction durable, retires exactly this snapshot
    /// with [`BufferPool::commit_unlogged`].
    pub fn snapshot_unlogged(&self) -> Vec<(PageId, u64)> {
        let set = self.unlogged.lock();
        let mut pages: Vec<(PageId, u64)> = set.iter().map(|(p, g)| (*p, *g)).collect();
        pages.sort_by_key(|(p, _)| p.0);
        pages
    }

    /// Retire a durably committed snapshot: each page leaves the unlogged
    /// set only if its generation is unchanged, i.e. no new mutation raced
    /// with the commit. A page mutated after its image was logged keeps its
    /// protection and is logged again by the next commit.
    pub fn commit_unlogged(&self, pages: &[(PageId, u64)]) {
        let mut set = self.unlogged.lock();
        for (page, gen) in pages {
            if set.get(page) == Some(gen) {
                set.remove(page);
            }
        }
    }

    fn note_write(&self, page: PageId) {
        if self.track_unlogged.load(Ordering::Acquire) {
            *self.unlogged.lock().entry(page).or_insert(0) += 1;
        }
    }

    /// Run the WAL-before-data hook for a page buffer about to be written.
    fn wal_barrier(&self, buf: &[u8]) -> Result<()> {
        let hook = self.wal_hook.lock().clone();
        if let Some(hook) = hook {
            hook.before_page_write(page_lsn(buf))?;
        }
        Ok(())
    }

    pub fn disk(&self) -> &Arc<DiskManager> {
        &self.disk
    }

    pub fn page_size(&self) -> usize {
        self.disk.page_size()
    }

    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            writebacks: self.writebacks.load(Ordering::Relaxed),
        }
    }

    /// Fetch a page, reading it from disk on a miss. The returned handle
    /// pins the page until dropped.
    pub fn fetch(self: &Arc<Self>, page: PageId) -> Result<PageHandle> {
        let mut inner = self.latch();
        let frame = match inner.map.get(&page) {
            Some(&idx) => {
                inner.pin(idx);
                self.hits.fetch_add(1, Ordering::Relaxed);
                idx
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                // The frame is off the LRU list and unmapped here: if the
                // read fails it must go back on the list as a free frame.
                let idx = self.acquire_frame(&mut inner)?;
                let read = self
                    .disk
                    .read_page(page, &mut inner.frames[idx].data.bytes.write());
                if let Err(e) = read {
                    inner.frames[idx].page = PageId::INVALID;
                    inner.lru_push_back(idx);
                    return Err(e);
                }
                inner.frames[idx].page = page;
                inner.frames[idx].pins = 1;
                inner.map.insert(page, idx);
                idx
            }
        };
        Ok(PageHandle {
            pool: Arc::clone(self),
            page,
            frame,
            data: Arc::clone(&inner.frames[frame].data),
        })
    }

    /// Allocate a fresh page on disk and return it pinned (already cached,
    /// marked dirty so the caller's initialisation reaches disk).
    pub fn allocate(self: &Arc<Self>) -> Result<PageHandle> {
        let page = self.disk.allocate_page()?;
        let handle = self.fetch(page)?;
        handle.data.dirty.store(true, Ordering::Relaxed);
        Ok(handle)
    }

    /// Hand out an unmapped, unpinned frame that is on no list: a new one
    /// while the pool is below capacity, else the least recently unpinned
    /// frame, written back first if dirty. Dirty pages holding unlogged
    /// (and hence uncommitted) changes are unevictable — the no-steal half
    /// of the WAL contract.
    fn acquire_frame(&self, inner: &mut PoolInner) -> Result<usize> {
        if inner.frames.len() < self.capacity {
            inner.frames.push(Frame {
                page: PageId::INVALID,
                data: Arc::new(FrameData {
                    bytes: RwLock::new(vec![0u8; self.disk.page_size()]),
                    dirty: AtomicBool::new(false),
                }),
                pins: 0,
                prev: NIL,
                next: NIL,
            });
            return Ok(inner.frames.len() - 1);
        }
        // Only a written page can be unlogged, so clean frames (all a read-
        // only workload ever sees) never consult the set.
        let mut unlogged = None;
        let mut victim = inner.lru_head;
        while victim != NIL {
            let f = &inner.frames[victim];
            let stealable = !f.data.dirty.load(Ordering::Relaxed)
                || !unlogged
                    .get_or_insert_with(|| self.unlogged.lock())
                    .contains_key(&f.page);
            if stealable {
                break;
            }
            victim = f.next;
        }
        drop(unlogged);
        if victim == NIL {
            return Err(JaguarError::Storage(format!(
                "buffer pool exhausted: all {} frames pinned or holding \
                 unlogged changes",
                self.capacity
            )));
        }
        // WAL-before-data: the victim is unpinned so nobody can mutate it
        // concurrently; its on-page LSN is final for this image.
        let vpage = inner.frames[victim].page;
        self.write_back(vpage, &inner.frames[victim].data)?;
        self.evictions.fetch_add(1, Ordering::Relaxed);
        inner.lru_unlink(victim);
        inner.map.remove(&vpage);
        Ok(victim)
    }

    /// Write `page` to disk if its frame is dirty. The flag is cleared
    /// *before* the bytes are latched, so a writer racing with the flush
    /// leaves the frame dirty rather than silently unwritten.
    fn write_back(&self, page: PageId, data: &FrameData) -> Result<()> {
        if !data.dirty.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.wal_barrier(&data.bytes.read())?;
        if data.dirty.swap(false, Ordering::Relaxed) {
            if let Err(e) = self.disk.write_page(page, &mut data.bytes.write()) {
                data.dirty.store(true, Ordering::Relaxed);
                return Err(e);
            }
            self.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn unpin(&self, frame: usize) {
        let mut inner = self.latch();
        let f = &mut inner.frames[frame];
        debug_assert!(f.pins > 0, "unpin of unpinned page");
        f.pins = f.pins.saturating_sub(1);
        if f.pins == 0 {
            inner.lru_push_back(frame);
        }
    }

    /// Write every dirty page back to disk (pages stay cached). Pages with
    /// unlogged changes are skipped: they hold uncommitted data that must
    /// not reach the data file (they are flushed by the commit following
    /// their statement, or discarded with the process).
    pub fn flush_all(&self) -> Result<()> {
        let inner = self.latch();
        // Held for the whole flush: a writer's `note_write` waits, so no
        // page can turn unlogged between its check and its write-back.
        let unlogged = self
            .track_unlogged
            .load(Ordering::Acquire)
            .then(|| self.unlogged.lock());
        for f in &inner.frames {
            if unlogged.as_ref().is_some_and(|u| u.contains_key(&f.page)) {
                continue;
            }
            self.write_back(f.page, &f.data)?;
        }
        Ok(())
    }
}

/// A pinned page. Dropping the handle unpins it.
pub struct PageHandle {
    pool: Arc<BufferPool>,
    page: PageId,
    /// Index of the pinned frame: stable for as long as the pin is held.
    frame: usize,
    data: Arc<FrameData>,
}

impl PageHandle {
    pub fn id(&self) -> PageId {
        self.page
    }

    /// Shared read access to the page bytes. Leaves the page clean and out
    /// of the unlogged set: this is the latch every reader takes.
    pub fn read(&self) -> RwLockReadGuard<'_, Vec<u8>> {
        self.data.bytes.read()
    }

    /// Exclusive write access; marks the page dirty and — when a WAL is
    /// attached — records it as unlogged so the mutation cannot reach the
    /// data file before it is logged and committed.
    pub fn write(&self) -> RwLockWriteGuard<'_, Vec<u8>> {
        self.pool.note_write(self.page);
        self.data.dirty.store(true, Ordering::Relaxed);
        self.data.bytes.write()
    }

    /// Exclusive write access that marks the page dirty but does *not*
    /// track it as unlogged. Reserved for the WAL commit path, which uses
    /// it to stamp the page LSN on pages whose images it is logging (a
    /// tracked write here would bump the page's generation and keep it in
    /// the unlogged set forever).
    pub fn write_nolog(&self) -> RwLockWriteGuard<'_, Vec<u8>> {
        self.data.dirty.store(true, Ordering::Relaxed);
        self.data.bytes.write()
    }
}

impl Drop for PageHandle {
    fn drop(&mut self) {
        self.pool.unpin(self.frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(frames: usize) -> Arc<BufferPool> {
        let disk = Arc::new(DiskManager::in_memory(128));
        Arc::new(BufferPool::new(disk, frames))
    }

    #[test]
    fn fetch_caches_pages() {
        let p = pool(4);
        let h = p.allocate().unwrap();
        let id = h.id();
        drop(h);
        let _a = p.fetch(id).unwrap();
        let _b = p.fetch(id).unwrap();
        let s = p.stats();
        assert_eq!(s.misses, 1); // only the allocate() fetch missed
        assert_eq!(s.hits, 2);
    }

    #[test]
    fn writes_survive_eviction() {
        let p = pool(2);
        let id = {
            let h = p.allocate().unwrap();
            h.write()[100] = 77;
            h.id()
        };
        // Evict by touching more pages than capacity.
        for _ in 0..3 {
            let h = p.allocate().unwrap();
            drop(h);
        }
        let h = p.fetch(id).unwrap();
        assert_eq!(h.read()[100], 77);
        assert!(p.stats().writebacks >= 1);
        assert!(p.stats().evictions >= 1);
    }

    #[test]
    fn pinned_pages_are_not_evicted() {
        let p = pool(2);
        let a = p.allocate().unwrap(); // pinned
        let b = p.allocate().unwrap(); // pinned
        assert!(
            p.allocate().is_err(),
            "all frames pinned: allocation must fail, not evict"
        );
        drop(a);
        let c = p.allocate().unwrap();
        drop(b);
        drop(c);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let p = pool(2);
        let a = p.allocate().unwrap().id();
        let b = p.allocate().unwrap().id();
        // Touch a so b is the LRU.
        drop(p.fetch(a).unwrap());
        drop(p.allocate().unwrap()); // evicts b
        let before = p.stats().misses;
        drop(p.fetch(a).unwrap()); // still cached → no new miss
        assert_eq!(p.stats().misses, before);
        drop(p.fetch(b).unwrap()); // evicted → miss
        assert_eq!(p.stats().misses, before + 1);
    }

    #[test]
    fn clean_pages_are_dropped_and_frames_reused() {
        let p = pool(2);
        let ids: Vec<PageId> = (0..4)
            .map(|i| {
                let h = p.allocate().unwrap();
                h.write()[100] = i;
                h.id()
            })
            .collect();
        p.flush_all().unwrap();
        let writebacks = p.stats().writebacks;
        // Cycle through twice as many pages as frames, reading only: each
        // fetch reuses a victim's buffer and must show the new page's bytes.
        for _ in 0..3 {
            for (i, id) in ids.iter().enumerate() {
                assert_eq!(p.fetch(*id).unwrap().read()[100], i as u8);
            }
        }
        assert_eq!(p.stats().writebacks, writebacks, "reads write nothing back");
        assert!(p.stats().evictions >= 10);
    }

    #[test]
    fn failed_read_leaves_the_frame_usable() {
        let p = pool(1);
        let id = p.allocate().unwrap().id();
        assert!(p.fetch(PageId(99)).is_err(), "no such page");
        assert_eq!(p.fetch(id).unwrap().id(), id);
    }

    #[test]
    fn flush_all_persists_without_eviction() {
        let disk = Arc::new(DiskManager::in_memory(128));
        let p = Arc::new(BufferPool::new(Arc::clone(&disk), 8));
        let h = p.allocate().unwrap();
        let id = h.id();
        h.write()[64] = 5;
        drop(h);
        p.flush_all().unwrap();
        let mut raw = vec![0u8; 128];
        disk.read_page(id, &mut raw).unwrap();
        assert_eq!(raw[64], 5);
    }

    struct RecordingHook {
        calls: Mutex<Vec<u64>>,
    }

    impl WalHook for RecordingHook {
        fn before_page_write(&self, page_lsn: u64) -> Result<()> {
            self.calls.lock().push(page_lsn);
            Ok(())
        }
    }

    #[test]
    fn unlogged_pages_are_not_evicted_or_flushed() {
        let disk = Arc::new(DiskManager::in_memory(128));
        let p = Arc::new(BufferPool::new(Arc::clone(&disk), 2));
        let hook = Arc::new(RecordingHook {
            calls: Mutex::new(Vec::new()),
        });
        p.set_wal_hook(Arc::clone(&hook) as Arc<dyn WalHook>);

        let id = {
            let h = p.allocate().unwrap();
            h.write()[100] = 9; // tracked as unlogged
            h.id()
        };
        // flush_all must skip the unlogged page.
        p.flush_all().unwrap();
        let mut raw = vec![0u8; 128];
        disk.read_page(id, &mut raw).unwrap();
        assert_eq!(raw[100], 0, "uncommitted byte must not reach disk");

        // Both frames unlogged-dirty → allocation cannot evict either.
        let h2 = p.allocate().unwrap();
        h2.write()[1] = 1;
        drop(h2);
        let err = match p.allocate() {
            Err(e) => e,
            Ok(_) => panic!("allocation must fail with all frames unlogged"),
        };
        assert!(err.to_string().contains("unlogged"), "{err}");

        // "Commit": snapshot, stamp, retire — now eviction/flush work again.
        let pages = p.snapshot_unlogged();
        assert_eq!(pages.len(), 2);
        {
            let h = p.fetch(id).unwrap();
            crate::page::set_page_lsn(&mut h.write_nolog(), 41);
        }
        p.commit_unlogged(&pages);
        p.flush_all().unwrap();
        disk.read_page(id, &mut raw).unwrap();
        assert_eq!(raw[100], 9);
        let calls = hook.calls.lock().clone();
        assert!(calls.contains(&41), "hook sees the stamped LSN: {calls:?}");
    }

    #[test]
    fn snapshot_is_sorted_and_commit_retires() {
        let p = pool(8);
        p.set_wal_hook(Arc::new(RecordingHook {
            calls: Mutex::new(Vec::new()),
        }));
        let mut ids = Vec::new();
        for _ in 0..4 {
            let h = p.allocate().unwrap();
            h.write()[9] = 9;
            ids.push(h.id());
        }
        let snap = p.snapshot_unlogged();
        let snap_ids: Vec<PageId> = snap.iter().map(|(p, _)| *p).collect();
        assert_eq!(snap_ids, ids, "sorted by page id");
        // Snapshotting does not remove: pages stay protected.
        assert_eq!(p.snapshot_unlogged().len(), 4);
        p.commit_unlogged(&snap);
        assert!(p.snapshot_unlogged().is_empty());
    }

    #[test]
    fn commit_skips_pages_mutated_during_the_commit_window() {
        let p = pool(8);
        p.set_wal_hook(Arc::new(RecordingHook {
            calls: Mutex::new(Vec::new()),
        }));
        let h = p.allocate().unwrap();
        h.write()[9] = 1;
        let snap = p.snapshot_unlogged();
        assert_eq!(snap.len(), 1);
        // A write racing with the commit (after the image was snapshotted,
        // before the commit became durable) bumps the generation…
        h.write()[9] = 2;
        p.commit_unlogged(&snap);
        // …so the page must keep its no-steal protection for the next
        // commit instead of being retired with the stale snapshot.
        let again = p.snapshot_unlogged();
        assert_eq!(again.len(), 1, "re-mutated page must stay unlogged");
        p.commit_unlogged(&again);
        assert!(p.snapshot_unlogged().is_empty());
    }

    #[test]
    fn concurrent_fetches() {
        let p = pool(16);
        let id = p.allocate().unwrap().id();
        let mut handles = Vec::new();
        for t in 0..8 {
            let p = Arc::clone(&p);
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    let h = p.fetch(id).unwrap();
                    if t == 0 {
                        let v = h.read()[10];
                        h.write()[10] = v; // exercise write path
                    } else {
                        let _ = h.read()[10];
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }
}
