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
//! A page a scan read in ([`BufferPool::fetch_scan`]) while the pool's file
//! outgrows the pool goes to the *head* instead, the next victim, unless a
//! plain fetch took it meanwhile: a scan larger than the pool recycles a
//! frame instead of flushing the pool, and never demotes a page it found
//! resident. A file that fits the pool never needs a victim, so its scan
//! fetches as any reader does and plain LRU keeps it whole.
//!
//! ## Loading a page
//!
//! The pool mutex guards the page map, the pins and the LRU list — never
//! I/O on a page being read in. Under the mutex a miss only *reserves* its
//! victim: it maps the page, pins the frame, marks it *loading* and takes
//! the frame's own write latch. It then drops the mutex, reads the page and
//! verifies its checksum (and decrypts it) in the frame, and publishes by
//! clearing the mark before it releases the latch. A fetch that finds the
//! page loading pins the frame and waits on that latch, not on the pool
//! (`storage.bufferpool.load_waits`). A failed read un-maps the page before
//! it releases the latch, so no handle ever shows bytes that did not
//! verify: a waiter that wakes to a frame still marked loading reads the
//! page itself. A loading frame is pinned, so it is never a victim.
//!
//! ## WAL integration
//!
//! When a write-ahead log is attached ([`BufferPool::set_wal_hook`]) the
//! pool enforces two recovery invariants:
//!
//! - **No-steal.** Every mutation through [`PageHandle::write`] records the
//!   page in an *unlogged* set; unlogged dirty pages are never evicted or
//!   flushed, so uncommitted data cannot reach a data file. The commit path
//!   snapshots the set ([`BufferPool::snapshot_unlogged`]), logs the pages
//!   (stamping LSNs through [`PageHandle::write_nolog`]), and retires the
//!   snapshot only once the commit is durable
//!   ([`BufferPool::commit_unlogged`]) — pages keep their no-steal
//!   protection for the whole commit window.
//! - **Bases.** A page joining the unlogged set leaves a copy of itself as
//!   it was before that first mutation — taken under the page's exclusive
//!   latch, if the hook [`WalHook::wants_base`] — so the commit path can
//!   log only the bytes that changed since ([`BufferPool::page_base`],
//!   [`PageBase`]). The copy goes when the page is retired.
//! - **WAL-before-data.** Before a (logged) dirty page is written back, the
//!   hook is invoked with the page's on-page LSN so the log can be made
//!   durable at least that far first.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::ids::PageId;
use jaguar_common::obs;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::disk::DiskManager;
use crate::page::{page_lsn, LSN_OFFSET};

/// Write-ahead-log callback invoked before a dirty page is written back to
/// its data file. Implemented by `jaguar-wal`; the trait lives here so the
/// storage crate stays free of a WAL dependency.
pub trait WalHook: Send + Sync {
    /// Make the log durable at least up to `page_lsn` (the LSN stamped on
    /// the page about to be written). Erroring aborts the write-back.
    fn before_page_write(&self, page_lsn: u64) -> Result<()>;

    /// Should `page`, joining the unlogged set, leave a [`PageBase`]? Only
    /// a page the log may write a delta for needs one.
    fn wants_base(&self, _page: PageId) -> bool {
        false
    }
}

/// The part of a frame a [`PageHandle`] shares with the pool. Allocated
/// once per frame and reused for every page the frame ever holds.
struct FrameData {
    bytes: RwLock<Vec<u8>>,
    dirty: AtomicBool,
    /// Set, under the pool mutex, when the frame is reserved for a page
    /// being read in; cleared by the loader, holding `bytes`' write latch,
    /// once the page verified. Still set after a failed read.
    loading: AtomicBool,
}

/// "No frame": end of the LRU list, or a frame not on it.
const NIL: usize = usize::MAX;

struct Frame {
    page: PageId,
    data: Arc<FrameData>,
    pins: usize,
    /// Read in by a scan and wanted by no other fetch since: released to
    /// the head of the LRU list.
    scan_load: bool,
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

    /// Put frame `idx` on the list: at its tail, or at its head — the
    /// next victim — if `first`.
    fn lru_push(&mut self, idx: usize, first: bool) {
        let (prev, next) = match first {
            true => (NIL, self.lru_head),
            false => (self.lru_tail, NIL),
        };
        (self.frames[idx].prev, self.frames[idx].next) = (prev, next);
        match prev {
            NIL => self.lru_head = idx,
            p => self.frames[p].next = idx,
        }
        match next {
            NIL => self.lru_tail = idx,
            n => self.frames[n].prev = idx,
        }
    }

    /// Pin frame `idx` (taking it off the LRU list on the first pin).
    fn pin(&mut self, idx: usize) {
        if self.frames[idx].pins == 0 {
            self.lru_unlink(idx);
        }
        self.frames[idx].pins += 1;
    }
}

/// A page of the unlogged set.
struct Unlogged {
    /// Bumped on every tracked write.
    gen: u64,
    base: Option<PageBase>,
}

/// An unlogged page as it was before its first unlogged mutation, and the
/// byte ranges the records logged for it since then have carried.
pub struct PageBase {
    bytes: Box<[u8]>,
    /// Sorted, disjoint, never shrinking until the page is retired.
    carried: Vec<Range<usize>>,
}

/// Bytes `0..ALWAYS_CARRIED` change without a tracked write — the checksum
/// when the page is written back, the page LSN when a record is logged —
/// so every record carries them.
const ALWAYS_CARRIED: usize = LSN_OFFSET + 8;

/// Two changed ranges at most this far apart are carried as one: a range
/// costs eight bytes of framing.
const RANGE_GAP: usize = 8;

impl PageBase {
    /// Add to the carried ranges every byte where `page` differs from the
    /// base, and return them all. A record carrying the current bytes of
    /// every returned range, replayed over the last committed record of the
    /// page, yields `page` — whichever of the records logged since the base
    /// was taken committed.
    pub fn carry(&mut self, page: &[u8]) -> &[Range<usize>] {
        let mut before = std::mem::take(&mut self.carried).into_iter().peekable();
        let carried = &mut self.carried;
        // Ranges come in ascending order of start, from the scan below and
        // from what was carried before: merged as they come.
        let mut add = |r: Range<usize>| {
            while let Some(b) = before.next_if(|b| b.start <= r.start) {
                merge_into(carried, b);
            }
            merge_into(carried, r);
        };
        add(0..ALWAYS_CARRIED);
        // Equal 64-byte blocks are skipped whole; within a block that
        // differs, ranges are found a word at a time.
        for (b, (old, new)) in self.bytes.chunks(64).zip(page.chunks(64)).enumerate() {
            if old != new {
                for (w, (o, n)) in old.chunks(8).zip(new.chunks(8)).enumerate() {
                    if o != n {
                        let start = b * 64 + w * 8;
                        add(start..start + n.len());
                    }
                }
            }
        }
        before.for_each(|b| merge_into(carried, b));
        &self.carried
    }
}

/// Append `r` to the sorted, disjoint `ranges`, joining the last one when
/// the gap between them is at most [`RANGE_GAP`].
fn merge_into(ranges: &mut Vec<Range<usize>>, r: Range<usize>) {
    match ranges.last_mut() {
        Some(last) if r.start <= last.end + RANGE_GAP => last.end = last.end.max(r.end),
        _ => ranges.push(r),
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
    unlogged: Mutex<HashMap<PageId, Unlogged>>,
    /// Ticks when a fetch/unpin finds the central pool latch held by
    /// another thread — the first place parallel scans bottleneck.
    latch_waits: Arc<obs::Counter>,
    /// Ticks when a fetch finds its page mapped but still being read in,
    /// and waits on the frame's latch for the loader to publish it.
    load_waits: Arc<obs::Counter>,
    /// Ticks when a page a scan read in is released as the next victim.
    scan_loads: Arc<obs::Counter>,
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
            load_waits: obs::global().counter("storage.bufferpool.load_waits"),
            scan_loads: obs::global().counter("storage.bufferpool.scan_loads"),
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
        let mut pages: Vec<(PageId, u64)> = set.iter().map(|(p, u)| (*p, u.gen)).collect();
        pages.sort_by_key(|(p, _)| p.0);
        pages
    }

    /// Retire a durably committed snapshot: each page leaves the unlogged
    /// set, and drops its base, only if its generation is unchanged, i.e.
    /// no new mutation raced with the commit. A page mutated after it was
    /// logged keeps its protection and is logged again by the next commit.
    pub fn commit_unlogged(&self, pages: &[(PageId, u64)]) {
        let mut set = self.unlogged.lock();
        for (page, gen) in pages {
            if set.get(page).is_some_and(|u| u.gen == *gen) {
                set.remove(page);
            }
        }
    }

    /// Run `f` on the base of `page` (`None` if it has none, or a commit
    /// has retired it) under the unlogged set's lock. Called by the commit
    /// path under the page's exclusive latch.
    pub fn page_base<R>(&self, page: PageId, f: impl FnOnce(Option<&mut PageBase>) -> R) -> R {
        f(self
            .unlogged
            .lock()
            .get_mut(&page)
            .and_then(|u| u.base.as_mut()))
    }

    /// Count a tracked write of `page`, whose bytes — not yet mutated —
    /// are `bytes`, held under its exclusive latch.
    fn note_write(&self, page: PageId, bytes: &[u8]) {
        if self.track_unlogged.load(Ordering::Acquire) {
            let mut set = self.unlogged.lock();
            let entry = set.entry(page).or_insert_with(|| {
                let hook = self.wal_hook.lock();
                Unlogged {
                    gen: 0,
                    base: (hook.as_ref().is_some_and(|h| h.wants_base(page))).then(|| PageBase {
                        bytes: bytes.into(),
                        carried: Vec::new(),
                    }),
                }
            });
            entry.gen += 1;
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
    /// pins the page until dropped. The read runs outside the pool mutex
    /// (see the module docs): a fetch of the page meanwhile waits on its
    /// frame, and every other fetch goes ahead.
    pub fn fetch(self: &Arc<Self>, page: PageId) -> Result<PageHandle> {
        self.fetch_as(page, false)
    }

    /// [`BufferPool::fetch`] for a scan: while the file holds more pages
    /// than the pool has frames, a page this fetch reads in is released to
    /// the head of the LRU list (see the module docs).
    pub fn fetch_scan(self: &Arc<Self>, page: PageId) -> Result<PageHandle> {
        self.fetch_as(page, self.disk.page_count() as usize > self.capacity)
    }

    fn fetch_as(self: &Arc<Self>, page: PageId, scan: bool) -> Result<PageHandle> {
        loop {
            let mut inner = self.latch();
            if let Some(&frame) = inner.map.get(&page) {
                inner.pin(frame);
                inner.frames[frame].scan_load &= scan;
                self.hits.fetch_add(1, Ordering::Relaxed);
                let handle = self.handle(page, frame, &inner);
                drop(inner);
                if !handle.data.loading.load(Ordering::Acquire) {
                    return Ok(handle);
                }
                self.load_waits.inc();
                drop(handle.read());
                if !handle.data.loading.load(Ordering::Acquire) {
                    return Ok(handle);
                }
                // The load failed and un-mapped the page: dropping the
                // handle unpins the frame, and this fetch reads it itself.
                continue;
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            let frame = self.acquire_frame(&mut inner)?;
            let f = &mut inner.frames[frame];
            (f.page, f.pins, f.scan_load) = (page, 1, scan);
            inner.map.insert(page, frame);
            let handle = self.handle(page, frame, &inner);
            handle.data.loading.store(true, Ordering::Relaxed);
            // Unpinned and unmapped until now, so no one else holds it.
            let mut bytes = handle.data.bytes.write();
            drop(inner);
            if let Err(e) = self.disk.read_page(page, &mut bytes) {
                let mut inner = self.latch();
                inner.map.remove(&page);
                let f = &mut inner.frames[frame];
                (f.page, f.scan_load) = (PageId::INVALID, false);
                drop(inner);
                drop(bytes);
                return Err(e);
            }
            handle.data.loading.store(false, Ordering::Release);
            drop(bytes);
            return Ok(handle);
        }
    }

    /// A handle on pinned frame `frame`, which holds `page`.
    fn handle(self: &Arc<Self>, page: PageId, frame: usize, inner: &PoolInner) -> PageHandle {
        PageHandle {
            pool: Arc::clone(self),
            page,
            frame,
            data: Arc::clone(&inner.frames[frame].data),
        }
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
                    loading: AtomicBool::new(false),
                }),
                pins: 0,
                scan_load: false,
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

    /// Write `page` to disk if its frame is dirty and it holds no unlogged
    /// change. The exclusive latch is held from the check to the write: a
    /// writer joins the unlogged set only under it, so the page cannot turn
    /// unlogged in between.
    fn write_back(&self, page: PageId, data: &FrameData) -> Result<()> {
        if !data.dirty.load(Ordering::Relaxed) {
            return Ok(());
        }
        let mut bytes = data.bytes.write();
        if self.track_unlogged.load(Ordering::Acquire) && self.unlogged.lock().contains_key(&page) {
            return Ok(());
        }
        self.wal_barrier(&bytes)?;
        if data.dirty.swap(false, Ordering::Relaxed) {
            if let Err(e) = self.disk.write_page(page, &mut bytes) {
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
            let first = std::mem::take(&mut f.scan_load);
            if first {
                self.scan_loads.inc();
            }
            inner.lru_push(frame, first);
        }
    }

    /// Write every dirty page back to disk (pages stay cached). Pages with
    /// unlogged changes are skipped: they hold uncommitted data that must
    /// not reach the data file (they are flushed by the commit following
    /// their statement, or discarded with the process).
    pub fn flush_all(self: &Arc<Self>) -> Result<()> {
        // One dirty frame at a time is pinned and the pool let go before its
        // latch is taken: a writer may hold a latch while it fetches, and
        // every other frame stays a victim for a concurrent miss.
        let mut next = 0;
        loop {
            let mut inner = self.latch();
            let Some(i) = (next..inner.frames.len())
                .find(|&i| inner.frames[i].data.dirty.load(Ordering::Relaxed))
            else {
                return Ok(());
            };
            inner.pin(i);
            let h = self.handle(inner.frames[i].page, i, &inner);
            drop(inner);
            self.write_back(h.page, &h.data)?;
            next = i + 1;
        }
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
        let bytes = self.data.bytes.write();
        self.pool.note_write(self.page, &bytes);
        self.data.dirty.store(true, Ordering::Relaxed);
        bytes
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

    /// A delta carries the header, each changed word (neighbours closer
    /// than a range's framing merged), and every range carried before —
    /// a byte put back to its base value included.
    #[test]
    fn page_base_carries_changes_and_keeps_what_it_carried() {
        let mut base = PageBase {
            bytes: vec![0u8; 256].into(),
            carried: Vec::new(),
        };
        let mut page = vec![0u8; 256];
        page[100] = 1;
        page[110] = 1; // the next word: one range
        page[125] = 1; // one unchanged word between: within RANGE_GAP
        page[200] = 1;
        assert_eq!(base.carry(&page), &[0..20, 96..128, 200..208]);
        page[100] = 0; // restored: still carried
        page[250] = 1;
        assert_eq!(base.carry(&page), &[0..20, 96..128, 200..208, 248..256]);
    }

    /// A writer may hold a page's latch while it fetches another page, and
    /// a concurrent miss needs a victim: `flush_all` waiting on that latch
    /// must hold neither the pool nor the frames it already wrote.
    #[test]
    fn flush_all_holds_one_frame_and_not_the_pool() {
        let p = pool(4);
        let missing = p.allocate().unwrap().id();
        // Four new dirty pages fill the pool and evict `missing` to disk.
        let mut pages: Vec<PageHandle> = (0..4).map(|_| p.allocate().unwrap()).collect();
        let last = pages.swap_remove(pages.iter().position(|h| h.frame == 3).unwrap());
        drop(pages);
        let latched = last.read();
        let flusher = {
            let p = Arc::clone(&p);
            std::thread::spawn(move || p.flush_all().unwrap())
        };
        // The flusher has written frames 0 to 2 once it pins frame 3 too.
        let mut spins = 0;
        while p.latch().frames[3].pins < 2 {
            assert!(spins < 10_000_000, "flush_all never reached frame 3");
            spins += 1;
            std::thread::yield_now();
        }
        // Deadlocks if the flusher holds the pool; finds no victim if it
        // still pins the frames it wrote.
        drop(p.fetch(missing).unwrap());
        drop(latched);
        flusher.join().unwrap();
        drop(last);
        let dirty = |f: &Frame| f.data.dirty.load(Ordering::Relaxed);
        assert!(!p.latch().frames.iter().any(dirty));
    }

    /// `n` pages written through a pool and flushed, behind a fresh pool of
    /// `frames` frames: every fetch starts cold.
    fn cold(n: usize, frames: usize) -> (Arc<BufferPool>, Vec<PageId>) {
        let disk = Arc::new(DiskManager::in_memory(128));
        let warm = Arc::new(BufferPool::new(Arc::clone(&disk), frames));
        let ids = (0..n).map(|_| warm.allocate().unwrap().id()).collect();
        warm.flush_all().unwrap();
        (Arc::new(BufferPool::new(disk, frames)), ids)
    }

    /// Fetch each of `pages` as a scan does, one pin at a time; the hits.
    fn scan(p: &Arc<BufferPool>, pages: &[PageId]) -> u64 {
        let hits = p.stats().hits;
        for &id in pages {
            drop(p.fetch_scan(id).unwrap());
        }
        p.stats().hits - hits
    }

    fn resident(p: &BufferPool, page: PageId) -> bool {
        p.latch().map.contains_key(&page)
    }

    /// A scan of three times the pool recycles the frames of the pages it
    /// reads in: the pages it filled the pool with stay for the next scan.
    #[test]
    fn a_looping_scan_keeps_a_pool_of_itself_resident() {
        let (p, ids) = cold(24, 8);
        assert_eq!(scan(&p, &ids), 0, "cold");
        for _ in 0..3 {
            assert!(scan(&p, &ids) >= 8 - 2);
        }
        assert_eq!(p.stats().hits + p.stats().misses, 4 * 24);
    }

    /// A file that fits the pool never needs a victim: its scan releases
    /// each page read in as any fetch does, and every later scan of the
    /// full pool hits the whole file.
    #[test]
    fn a_scan_of_a_file_that_fits_the_pool_is_plain_lru() {
        let (p, ids) = cold(8, 8);
        assert_eq!(scan(&p, &ids), 0, "cold");
        let inner = p.latch();
        assert_eq!(inner.lru_tail, inner.map[&ids[7]], "released as a hit is");
        assert!(inner.frames.iter().all(|f| !f.scan_load));
        drop(inner);
        assert_eq!(scan(&p, &ids), 8);
        assert_eq!(scan(&p, &ids), 8);
    }

    /// A page a point fetch read in just before a scan outlives it, and
    /// the next scan too.
    #[test]
    fn a_point_fetch_before_a_scan_stays_resident() {
        let (p, ids) = cold(25, 8);
        let (point, table) = ids.split_first().unwrap();
        drop(p.fetch(*point).unwrap());
        scan(&p, table);
        assert!(resident(&p, *point));
        scan(&p, table);
        assert!(resident(&p, *point));
    }

    /// A page someone else keeps hot that a scan finds resident is unpinned
    /// as any hit is, not queued as the next victim; so is a page a scan
    /// read in that a point fetch took while the scan held it.
    #[test]
    fn a_page_a_scan_found_resident_is_not_demoted() {
        let (p, ids) = cold(30, 8);
        let (hot, table) = ids.split_at(8);
        for &id in hot {
            drop(p.fetch(id).unwrap());
        }
        // The most recent of the hot pages is the first page the scan reads.
        let table = [&hot[7..], &table[..16]].concat();
        scan(&p, &table);
        assert!(resident(&p, hot[7]));
        assert!(
            !resident(&p, hot[0]),
            "the least recent hot page was the victim"
        );
        assert!(hot[1..7].iter().all(|&id| resident(&p, id)));
        // Read in by a scan, and fetched by a point read before its release.
        let shared = ids[29];
        let scanning = p.fetch_scan(shared).unwrap();
        drop(p.fetch(shared).unwrap());
        drop(scanning);
        let inner = p.latch();
        assert_eq!(inner.lru_tail, inner.map[&shared], "released as a hit is");
    }

    /// A page holding unlogged changes is no victim even at the head of the
    /// list, where a scan that read it in left it.
    #[test]
    fn an_unlogged_page_is_never_a_scan_victim() {
        let (p, ids) = cold(24, 8);
        p.set_wal_hook(Arc::new(RecordingHook {
            calls: Mutex::new(Vec::new()),
        }));
        let written = ids[0];
        p.fetch_scan(written).unwrap().write()[100] = 9;
        let inner = p.latch();
        assert_eq!(inner.lru_head, inner.map[&written]);
        drop(inner);
        scan(&p, &ids[1..]);
        scan(&p, &ids[1..]);
        assert!(resident(&p, written));
        let mut raw = vec![0u8; 128];
        p.disk().read_page(written, &mut raw).unwrap();
        assert_eq!(raw[100], 0, "uncommitted byte must not reach disk");
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
