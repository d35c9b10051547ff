//! Heap files: unordered collections of variable-length records.
//!
//! A heap file occupies one [`DiskManager`](crate::disk::DiskManager) file through a shared
//! [`BufferPool`]:
//!
//! * **page 0** is the file header (magic + free-list head),
//! * records small enough to inline live on slotted pages,
//! * larger records (e.g. the paper's 10,000-byte `ByteArray` tuples, which
//!   exceed one 8 KiB page) spill into a chain of overflow pages, with a
//!   9-byte stub left in the slot,
//! * deleted overflow pages go onto an intra-file free list and are reused
//!   by later allocations,
//! * slotted pages a delete (or a shrinking update) freed space on are
//!   remembered in memory and tried again before the file is extended.
//!
//! The scan iterator visits record pages in file order and resolves stubs
//! transparently, so the executor above sees a stream of full records.
//!
//! **Decoding.** This module does not know what a record holds. A reader
//! (`get_with`, a scan's visitor) is a function over `&[u8]`; an inline
//! record is handed to it in place, inside its page, and only what the
//! function keeps leaves the page. A spilled record has no single page to
//! be read from: its chain is gathered first ([`HeapFile::gather`]) and the
//! same function runs over the gathered bytes.
//!
//! **Scanning.** [`PageScan::next_page`] is the one place that pins,
//! latches and walks a slotted page for a scan; the catalog's row batches
//! — every statement's scan — sit on it. It fetches with
//! [`BufferPool::fetch_scan`], so the pages a scan reads in are the pool's
//! next victims and the pages it found resident stay.
//!
//! **Latching.** Readers (`get_with`, the scan, overflow-chain reads) take
//! a page's *shared* latch through [`PageHandle::read`](crate::buffer::PageHandle::read)
//! and leave it clean; only `insert`, `update`, `delete` and page allocation
//! take the exclusive latch, which is what marks a page dirty and unlogged. A decode
//! function or visitor therefore runs under a shared latch and must not
//! re-enter the heap file.

use std::sync::Arc;

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::ids::{PageId, RecordId};
use jaguar_common::obs;
use parking_lot::{Mutex, MutexGuard};

use crate::buffer::BufferPool;
use crate::page::{
    init_overflow, overflow_capacity, page_type, read_overflow, set_page_type, PageType,
    SlottedPage, SlottedRef, COMMON_HEADER, SLOT_SIZE,
};

const MAGIC: u32 = 0x4A47_4846; // "JGHF"
const KIND_INLINE: u8 = 0;
const KIND_SPILLED: u8 = 1;
/// Size of a spilled-record stub: kind + total_len (u32) + first page (u32).
const STUB_LEN: usize = 9;

/// Where the bytes of a spilled record are: what a page walk hands out in
/// place of the record, redeemed with [`HeapFile::gather`] once the page's
/// latch is released.
#[derive(Debug, Clone, Copy)]
pub struct Spill {
    first: PageId,
    total: usize,
}

/// A live record as a page walk meets it in its slot.
pub enum Stored<'a> {
    /// The record's bytes, in place in the page.
    Inline(&'a [u8]),
    Spilled(Spill),
}

impl<'a> Stored<'a> {
    #[inline]
    fn parse(framed: &'a [u8]) -> Result<Stored<'a>> {
        match framed.first() {
            Some(&KIND_INLINE) => Ok(Stored::Inline(&framed[1..])),
            Some(&KIND_SPILLED) if framed.len() == STUB_LEN => Ok(Stored::Spilled(Spill {
                total: u32::from_le_bytes(framed[1..5].try_into().expect("4")) as usize,
                first: PageId(u32::from_le_bytes(framed[5..9].try_into().expect("4"))),
            })),
            Some(&KIND_SPILLED) => Err(JaguarError::Corruption("malformed spill stub".into())),
            _ => Err(JaguarError::Corruption("empty record frame".into())),
        }
    }
}

/// Slotted pages remembered as having free space, at most.
const MAX_HOLES: usize = 1024;
/// Remembered pages one insert probes before it extends the file.
const HOLE_TRIES: usize = 4;

/// What [`HeapFile::update`] did with a record.
pub enum Updated<T> {
    /// Rewritten on its page under its old id; carries what the caller's
    /// function made of the record it replaced.
    InPlace(T),
    /// Untouched: its page has no room for the new version, or one of the
    /// two versions is spilled. The caller deletes and re-inserts.
    NoRoom,
    /// Already deleted — by a concurrent statement, after the caller saw it.
    Gone,
}

/// An unordered record file with overflow support and a page free list.
pub struct HeapFile {
    pool: Arc<BufferPool>,
    /// Page the last successful insert landed on; tried first next time.
    insert_hint: Mutex<PageId>,
    /// Slotted pages a delete or a shrinking update freed space on, newest
    /// last. Bounded, in memory only and never persisted: it is a hint, a
    /// page on it is probed before use, and after a reopen it simply
    /// refills as rows are deleted.
    holes: Mutex<Vec<PageId>>,
    hole_reuses: Arc<obs::Counter>,
    /// Serialises free-list manipulation (the list head lives on page 0).
    alloc_lock: Mutex<()>,
    /// Ticks when a writer finds `insert_hint` held by another thread.
    hint_waits: Arc<obs::Counter>,
    /// Ticks when page alloc/free finds `alloc_lock` held by another thread.
    alloc_waits: Arc<obs::Counter>,
}

/// Take `m`, counting the acquisition as a contended wait when another
/// thread holds it right now — parallel workloads surface write-side
/// hotspots in `metrics()` instead of only in profiles.
fn lock_counted<'a, T: ?Sized>(m: &'a Mutex<T>, waits: &obs::Counter) -> MutexGuard<'a, T> {
    match m.try_lock() {
        Some(g) => g,
        None => {
            waits.inc();
            m.lock()
        }
    }
}

impl HeapFile {
    /// Create a new heap file on an empty disk manager.
    pub fn create(pool: Arc<BufferPool>) -> Result<HeapFile> {
        if pool.disk().page_count() != 0 {
            return Err(JaguarError::Storage(
                "HeapFile::create requires an empty file".into(),
            ));
        }
        let header = pool.allocate()?;
        {
            let mut buf = header.write();
            set_page_type(&mut buf, PageType::FileHeader);
            buf[COMMON_HEADER..COMMON_HEADER + 4].copy_from_slice(&MAGIC.to_le_bytes());
            buf[COMMON_HEADER + 4..COMMON_HEADER + 8]
                .copy_from_slice(&PageId::INVALID.0.to_le_bytes());
        }
        drop(header);
        Ok(HeapFile::over(pool))
    }

    fn over(pool: Arc<BufferPool>) -> HeapFile {
        HeapFile {
            pool,
            insert_hint: Mutex::new(PageId::INVALID),
            holes: Mutex::new(Vec::new()),
            hole_reuses: obs::global().counter("storage.heap.hole_reuses"),
            alloc_lock: Mutex::new(()),
            hint_waits: obs::global().counter("storage.heap.insert_hint_waits"),
            alloc_waits: obs::global().counter("storage.heap.alloc_lock_waits"),
        }
    }

    /// Open an existing heap file, validating the header page.
    pub fn open(pool: Arc<BufferPool>) -> Result<HeapFile> {
        if pool.disk().page_count() == 0 {
            return Err(JaguarError::Storage("file is empty; use create()".into()));
        }
        let header = pool.fetch(PageId(0))?;
        {
            let buf = header.read();
            if page_type(&buf)? != PageType::FileHeader {
                return Err(JaguarError::Corruption(
                    "page 0 is not a file header".into(),
                ));
            }
            let magic =
                u32::from_le_bytes(buf[COMMON_HEADER..COMMON_HEADER + 4].try_into().expect("4"));
            if magic != MAGIC {
                return Err(JaguarError::Corruption(format!(
                    "bad heap file magic {magic:#x}"
                )));
            }
        }
        Ok(HeapFile::over(pool))
    }

    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    fn page_size(&self) -> usize {
        self.pool.page_size()
    }

    /// Largest record payload that can be stored inline on a slotted page.
    pub fn max_inline(&self) -> usize {
        self.page_size() - COMMON_HEADER - SLOT_SIZE - 1
    }

    // -- free-list-aware page allocation ---------------------------------

    fn free_list_head(&self) -> Result<PageId> {
        let header = self.pool.fetch(PageId(0))?;
        let buf = header.read();
        Ok(PageId(u32::from_le_bytes(
            buf[COMMON_HEADER + 4..COMMON_HEADER + 8]
                .try_into()
                .expect("4"),
        )))
    }

    fn set_free_list_head(&self, head: PageId) -> Result<()> {
        let header = self.pool.fetch(PageId(0))?;
        let mut buf = header.write();
        buf[COMMON_HEADER + 4..COMMON_HEADER + 8].copy_from_slice(&head.0.to_le_bytes());
        Ok(())
    }

    /// Pop a page from the free list or allocate a fresh one.
    fn acquire_page(&self) -> Result<PageId> {
        let _g = lock_counted(&self.alloc_lock, &self.alloc_waits);
        let head = self.free_list_head()?;
        if head.is_valid() {
            let next = {
                let h = self.pool.fetch(head)?;
                let buf = h.read();
                PageId(u32::from_le_bytes(
                    buf[COMMON_HEADER..COMMON_HEADER + 4].try_into().expect("4"),
                ))
            };
            self.set_free_list_head(next)?;
            Ok(head)
        } else {
            self.pool.disk().allocate_page()
        }
    }

    /// Push a page onto the free list.
    fn release_page(&self, page: PageId) -> Result<()> {
        let _g = lock_counted(&self.alloc_lock, &self.alloc_waits);
        let head = self.free_list_head()?;
        {
            let h = self.pool.fetch(page)?;
            let mut buf = h.write();
            buf[4..].fill(0);
            set_page_type(&mut buf, PageType::Free);
            buf[COMMON_HEADER..COMMON_HEADER + 4].copy_from_slice(&head.0.to_le_bytes());
        }
        self.set_free_list_head(page)
    }

    // -- record operations ------------------------------------------------

    /// Insert a record, spilling to overflow pages when necessary.
    pub fn insert(&self, record: &[u8]) -> Result<RecordId> {
        if record.len() <= self.max_inline() {
            let mut framed = Vec::with_capacity(record.len() + 1);
            framed.push(KIND_INLINE);
            framed.extend_from_slice(record);
            self.insert_framed(&framed)
        } else {
            let first = self.write_overflow_chain(record)?;
            let mut stub = Vec::with_capacity(STUB_LEN);
            stub.push(KIND_SPILLED);
            stub.extend_from_slice(&(record.len() as u32).to_le_bytes());
            stub.extend_from_slice(&first.0.to_le_bytes());
            self.insert_framed(&stub)
        }
    }

    /// Place an already-framed record onto some slotted page: the hinted
    /// one, else one remembered as having free space, else a fresh one.
    fn insert_framed(&self, framed: &[u8]) -> Result<RecordId> {
        let hint = *lock_counted(&self.insert_hint, &self.hint_waits);
        if hint.is_valid() {
            if let Some(rid) = self.try_insert_on(hint, framed)? {
                return Ok(rid);
            }
        }
        for _ in 0..HOLE_TRIES {
            let Some(page) = self.holes.lock().last().copied() else {
                break;
            };
            if self.has_room(page, framed)? {
                if let Some(rid) = self.try_insert_on(page, framed)? {
                    self.hole_reuses.inc();
                    *lock_counted(&self.insert_hint, &self.hint_waits) = page;
                    return Ok(rid);
                }
            }
            self.holes.lock().retain(|p| *p != page);
        }
        let page = self.acquire_page()?;
        let handle = self.pool.fetch(page)?;
        let slot = {
            let mut buf = handle.write();
            let mut sp = SlottedPage::init(&mut buf);
            sp.insert(framed).ok_or_else(|| {
                JaguarError::Storage(format!(
                    "record of {} bytes does not fit an empty page",
                    framed.len()
                ))
            })?
        };
        *lock_counted(&self.insert_hint, &self.hint_waits) = page;
        Ok(RecordId::new(page, slot))
    }

    fn try_insert_on(&self, page: PageId, framed: &[u8]) -> Result<Option<RecordId>> {
        let handle = self.pool.fetch(page)?;
        let mut buf = handle.write();
        if buf[4] != PageType::Slotted as u8 {
            return Ok(None);
        }
        let mut sp = SlottedPage::open(&mut buf)?;
        Ok(sp.insert(framed).map(|slot| RecordId::new(page, slot)))
    }

    /// Does `page` look able to take `framed`? Examined under the shared
    /// latch, so that a remembered page that is too full stays clean — and
    /// out of the next commit's log.
    fn has_room(&self, page: PageId, framed: &[u8]) -> Result<bool> {
        let handle = self.pool.fetch(page)?;
        let buf = handle.read();
        Ok(buf[4] == PageType::Slotted as u8 && SlottedRef::open(&buf)?.fits(framed.len()))
    }

    /// Remember that `page` has free space now.
    fn note_hole(&self, page: PageId) {
        let mut holes = self.holes.lock();
        if holes.last() != Some(&page) && holes.len() < MAX_HOLES && !holes.contains(&page) {
            holes.push(page);
        }
    }

    fn write_overflow_chain(&self, record: &[u8]) -> Result<PageId> {
        let cap = overflow_capacity(self.page_size());
        // Build back-to-front so each page can point at the next.
        let mut next = PageId::INVALID;
        let chunks: Vec<&[u8]> = record.chunks(cap).collect();
        for chunk in chunks.iter().rev() {
            let page = self.acquire_page()?;
            let handle = self.pool.fetch(page)?;
            {
                let mut buf = handle.write();
                init_overflow(&mut buf, chunk, next);
            }
            next = page;
        }
        Ok(next)
    }

    /// Read a spilled record's bytes off its overflow chain.
    pub fn gather(&self, spill: Spill) -> Result<Vec<u8>> {
        let total_len = spill.total;
        let mut out = Vec::with_capacity(total_len);
        let mut page = spill.first;
        while page.is_valid() {
            let handle = self.pool.fetch(page)?;
            let buf = handle.read();
            let (chunk, next) = read_overflow(&buf)?;
            out.extend_from_slice(chunk);
            if out.len() > total_len {
                return Err(JaguarError::Corruption(
                    "overflow chain longer than declared record".into(),
                ));
            }
            page = next;
        }
        if out.len() != total_len {
            return Err(JaguarError::Corruption(format!(
                "overflow chain yielded {} bytes, stub declared {total_len}",
                out.len()
            )));
        }
        Ok(out)
    }

    /// Fetch a record by id (resolving overflow chains) and return what
    /// `decode` makes of its bytes — `None` if no live record has that id:
    /// it was deleted, perhaps after an index told the caller about it.
    pub fn get_with<T>(
        &self,
        rid: RecordId,
        decode: impl FnOnce(&[u8]) -> Result<T>,
    ) -> Result<Option<T>> {
        let spill = {
            let handle = self.pool.fetch(rid.page)?;
            let buf = handle.read();
            let sp = SlottedRef::open(&buf)?;
            if !sp.is_live(rid.slot) {
                return Ok(None);
            }
            match Stored::parse(sp.get(rid.slot)?)? {
                Stored::Inline(record) => return decode(record).map(Some),
                Stored::Spilled(spill) => spill,
            }
        };
        decode(&self.gather(spill)?).map(Some)
    }

    /// Fetch a copy of a record by id; an error if it is not there.
    pub fn get(&self, rid: RecordId) -> Result<Vec<u8>> {
        self.get_with(rid, |record| Ok(record.to_vec()))?
            .ok_or_else(|| JaguarError::Storage(format!("no live record at {rid}")))
    }

    /// Replace an inline record with another inline one on the same page,
    /// keeping its id; `seen` is handed the record being replaced, in
    /// place, before it is overwritten. One page is written and nothing
    /// else, so the change is atomic under the page latch and costs its
    /// commit one page image.
    pub fn update<T>(
        &self,
        rid: RecordId,
        record: &[u8],
        seen: impl FnOnce(&[u8]) -> Result<T>,
    ) -> Result<Updated<T>> {
        if record.len() > self.max_inline() {
            return Ok(Updated::NoRoom);
        }
        let handle = self.pool.fetch(rid.page)?;
        let mut buf = handle.write();
        let mut sp = SlottedPage::open(&mut buf)?;
        if !sp.is_live(rid.slot) {
            return Ok(Updated::Gone);
        }
        let old = sp.get(rid.slot)?;
        if old.first() != Some(&KIND_INLINE) {
            return Ok(Updated::NoRoom);
        }
        let (old_len, seen) = (old.len(), seen(&old[1..])?);
        let mut framed = Vec::with_capacity(record.len() + 1);
        framed.push(KIND_INLINE);
        framed.extend_from_slice(record);
        if !sp.replace(rid.slot, &framed)? {
            return Ok(Updated::NoRoom);
        }
        drop(buf);
        if framed.len() < old_len {
            self.note_hole(rid.page);
        }
        Ok(Updated::InPlace(seen))
    }

    /// Delete a record, releasing any overflow pages to the free list.
    /// Returns the record, or `None` if it was already gone — deleted by a
    /// concurrent statement after the caller's scan saw it.
    pub fn delete(&self, rid: RecordId) -> Result<Option<Vec<u8>>> {
        let (inline, spill) = {
            let handle = self.pool.fetch(rid.page)?;
            let mut buf = handle.write();
            let mut sp = SlottedPage::open(&mut buf)?;
            if !sp.is_live(rid.slot) {
                return Ok(None);
            }
            let found = match Stored::parse(sp.get(rid.slot)?)? {
                Stored::Inline(record) => (Some(record.to_vec()), None),
                Stored::Spilled(spill) => (None, Some(spill)),
            };
            sp.delete(rid.slot)?;
            found
        };
        self.note_hole(rid.page);
        let Some(spill) = spill else {
            return Ok(inline);
        };
        let record = self.gather(spill)?;
        let mut page = spill.first;
        while page.is_valid() {
            let next = {
                let handle = self.pool.fetch(page)?;
                let buf = handle.read();
                let (_, next) = read_overflow(&buf)?;
                next
            };
            self.release_page(page)?;
            page = next;
        }
        Ok(Some(record))
    }

    /// Number of pages currently in the underlying file.
    pub fn file_pages(&self) -> u32 {
        self.pool.disk().page_count()
    }

    /// A copy of every live record, in file order: a convenience for
    /// tests and tools — a statement scans through [`HeapFile::pages`].
    pub fn scan(self: &Arc<Self>) -> Result<Vec<(RecordId, Vec<u8>)>> {
        let (mut pages, mut found) = (self.pages(1, u32::MAX), Vec::new());
        while pages.next_page(|rid, stored| {
            found.push(match stored {
                Stored::Inline(record) => (rid, Ok(record.to_vec())),
                Stored::Spilled(spill) => (rid, Err(spill)),
            });
            Ok(())
        })? {}
        let copy = |(rid, record): (_, std::result::Result<_, Spill>)| {
            Ok((rid, record.or_else(|spill| self.gather(spill))?))
        };
        found.into_iter().map(copy).collect()
    }

    /// Walk the slotted pages in `[start, end)` — a morsel of the file, or
    /// all of it — one [`PageScan::next_page`] at a time. `start` is floored
    /// at page 1 (page 0 is the file header); `end` is additionally bounded
    /// by the file's live page count at each step, so `u32::MAX` means "to
    /// the end of the file". Disjoint ranges partition the scan: every
    /// record is seen by exactly one range.
    pub fn pages(self: &Arc<Self>, start: u32, end: u32) -> PageScan {
        PageScan {
            heap: Arc::clone(self),
            page: PageId(start.max(1)),
            end,
        }
    }
}

/// A cursor over the slotted pages of a range of a [`HeapFile`].
///
/// The scan works a page at a time: [`PageScan::next_page`] pins and
/// share-latches a page once, shows the visitor every live record where it
/// lies, and releases the page before it returns. No record is copied out
/// whole, and no latch or pin is held between two calls, so whatever runs
/// there — a predicate, a UDF callback — may re-enter the engine. What the
/// visitor kept of one page is therefore a *page-consistent snapshot*: a
/// record deleted after its page was walked is still among it, one inserted
/// onto that page afterwards is not, and a spilled record deleted in
/// between fails to [`gather`](HeapFile::gather).
pub struct PageScan {
    heap: Arc<HeapFile>,
    /// Next page to walk.
    page: PageId,
    /// First page (exclusive bound) the scan will not visit.
    end: u32,
}

impl PageScan {
    pub fn heap(&self) -> &HeapFile {
        &self.heap
    }

    /// Show `visit` the live records of the next page in slot order, under
    /// the page's shared latch (so it must not re-enter the heap file);
    /// `false` when the range holds no further page. A page that is not a
    /// record page has nothing to show. An error — the visitor's included —
    /// ends the walk of the page where it stands.
    pub fn next_page(
        &mut self,
        mut visit: impl FnMut(RecordId, Stored<'_>) -> Result<()>,
    ) -> Result<bool> {
        let page = self.page;
        if page.0 >= self.end || page.0 >= self.heap.file_pages() {
            return Ok(false);
        }
        self.page = PageId(page.0 + 1);
        let handle = self.heap.pool.fetch_scan(page)?;
        let buf = handle.read();
        // Skip anything that is not a record page — including page types
        // this module does not know about (index pages share the file).
        if buf[4] == PageType::Slotted as u8 {
            let sp = SlottedRef::open(&buf)?;
            for slot in (0..sp.slot_count()).filter(|&s| sp.is_live(s)) {
                visit(RecordId::new(page, slot), Stored::parse(sp.get(slot)?)?)?;
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;

    fn heap(page_size: usize, frames: usize) -> Arc<HeapFile> {
        let disk = Arc::new(DiskManager::in_memory(page_size));
        let pool = Arc::new(BufferPool::new(disk, frames));
        Arc::new(HeapFile::create(pool).unwrap())
    }

    #[test]
    fn insert_get_small_records() {
        let h = heap(512, 16);
        let a = h.insert(b"alpha").unwrap();
        let b = h.insert(b"beta").unwrap();
        assert_eq!(h.get(a).unwrap(), b"alpha");
        assert_eq!(h.get(b).unwrap(), b"beta");
    }

    #[test]
    fn spill_roundtrip() {
        let h = heap(512, 64);
        // 10 KB record on 512-byte pages → ~21 overflow pages.
        let big: Vec<u8> = (0..10_000).map(|i| (i % 251) as u8).collect();
        let rid = h.insert(&big).unwrap();
        assert_eq!(h.get(rid).unwrap(), big);
        assert!(h.file_pages() > 20);
    }

    #[test]
    fn spill_exact_page_multiple() {
        let h = heap(512, 64);
        let cap = overflow_capacity(512);
        let big = vec![9u8; cap * 3]; // exactly three chunks
        let rid = h.insert(&big).unwrap();
        assert_eq!(h.get(rid).unwrap(), big);
    }

    #[test]
    fn boundary_between_inline_and_spill() {
        let h = heap(512, 64);
        let max = h.max_inline();
        let inline = vec![1u8; max];
        let spill = vec![2u8; max + 1];
        let r1 = h.insert(&inline).unwrap();
        let r2 = h.insert(&spill).unwrap();
        assert_eq!(h.get(r1).unwrap(), inline);
        assert_eq!(h.get(r2).unwrap(), spill);
    }

    #[test]
    fn scan_sees_all_records_in_order_of_insert_pages() {
        let h = heap(512, 64);
        let mut rids = Vec::new();
        for i in 0..100u32 {
            rids.push(h.insert(format!("record-{i}").as_bytes()).unwrap());
        }
        let scanned = h.scan().unwrap();
        assert_eq!(scanned.len(), 100);
        // Every inserted rid appears exactly once.
        let mut seen: Vec<_> = scanned.iter().map(|(rid, _)| *rid).collect();
        seen.sort();
        let mut expect = rids.clone();
        expect.sort();
        assert_eq!(seen, expect);
    }

    #[test]
    fn scan_range_partitions_cover_every_record_once() {
        let h = heap(512, 64);
        for i in 0..200u32 {
            h.insert(format!("rec-{i}").as_bytes()).unwrap();
        }
        let full = h.scan().unwrap();
        let pages = h.file_pages();
        // Split [1, pages) into 3-page morsels and re-assemble in order.
        let mut pieced = Vec::new();
        let mut start = 1;
        while start < pages {
            let end = (start + 3).min(pages);
            let mut morsel = h.pages(start, end);
            while morsel
                .next_page(|rid, stored| {
                    let Stored::Inline(record) = stored else {
                        panic!("nothing spills here");
                    };
                    pieced.push((rid, record.to_vec()));
                    Ok(())
                })
                .unwrap()
            {}
            start = end;
        }
        assert_eq!(pieced, full, "disjoint ranges partition the scan");
        assert!(!h.pages(pages, u32::MAX).next_page(|_, _| Ok(())).unwrap());
    }

    /// The file's length is read without the disk mutex: a scan racing
    /// appends sees the old length or the new one, never a page that
    /// cannot be read yet.
    #[test]
    fn a_scan_concurrent_with_page_allocation_never_walks_past_the_end() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        const RECORDS: usize = 400;
        let h = heap(512, 64);
        let (start, written) = (Barrier::new(2), AtomicBool::new(false));
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for i in 0..RECORDS {
                    h.insert(format!("record-{i:0>100}").as_bytes()).unwrap();
                }
                written.store(true, Ordering::SeqCst);
            });
            start.wait();
            let (mut seen, mut pages) = (0, 0);
            while seen < RECORDS {
                let done = written.load(Ordering::SeqCst);
                let now = h.scan().expect("a counted page can be read").len();
                assert!(now >= seen && now <= RECORDS, "{seen} then {now}");
                assert!(h.file_pages() >= pages, "the count only grows");
                (seen, pages) = (now, h.file_pages());
                assert!(!done || now == RECORDS, "{now} after the last insert");
            }
        });
    }

    #[test]
    fn scan_resolves_spilled_records() {
        let h = heap(512, 64);
        h.insert(b"small").unwrap();
        let big = vec![3u8; 2000];
        h.insert(&big).unwrap();
        h.insert(b"small2").unwrap();
        let recs: Vec<_> = h.scan().unwrap().into_iter().map(|r| r.1).collect();
        // Slot order, with the spilled record resolved in its place.
        assert_eq!(recs, vec![b"small".to_vec(), big, b"small2".to_vec()]);
    }

    /// What a visitor kept of a page is a snapshot of it: the page is
    /// unlatched once `next_page` returns, and may change under the copy.
    #[test]
    fn a_walked_page_is_a_snapshot_the_file_may_move_on_from() {
        let h = heap(512, 16);
        let a = h.insert(b"a").unwrap();
        let b = h.insert(b"b").unwrap();
        let c = h.insert(b"c").unwrap();
        assert!(a.page == b.page && b.page == c.page, "one page");
        let (mut pages, mut kept) = (h.pages(1, u32::MAX), Vec::new());
        let more = pages.next_page(|rid, _| {
            kept.push(rid);
            Ok(())
        });
        assert!(more.unwrap());
        // No latch or pin is left behind: the walk's consumer may mutate
        // the page it was shown.
        h.delete(c).unwrap();
        let d = h.insert(b"d").unwrap();
        assert_eq!(d.page, a.page);
        assert_eq!(kept, vec![a, b, c]);
        let fresh: Vec<_> = h.scan().unwrap().into_iter().map(|r| r.1).collect();
        assert_eq!(fresh, vec![b"a".to_vec(), b"b".to_vec(), b"d".to_vec()]);
    }

    /// The visitor sees each live record once, in place (inline) or as the
    /// chain to gather it from (spilled); its error ends the walk of the
    /// page where it stands.
    #[test]
    fn a_page_walk_shows_each_record_once_and_stops_at_an_error() {
        let h = heap(512, 64);
        let big = vec![3u8; 2000];
        for rec in [&b"one"[..], b"two", &big, b"bad", b"never reached"] {
            h.insert(rec).unwrap();
        }
        let mut seen = Vec::new();
        let walked = h.pages(1, 2).next_page(|_, stored| {
            seen.push(match stored {
                Stored::Inline(b"bad") => return Err(JaguarError::Corruption("rejected".into())),
                Stored::Inline(record) => record.len(),
                Stored::Spilled(spill) => h.gather(spill)?.len(),
            });
            Ok(())
        });
        assert_eq!(walked.unwrap_err().to_string(), "corruption: rejected");
        assert_eq!(seen, [3, 3, 2000]);
        // `get_with` decodes the same way, by record id.
        let rid = h.insert(b"by id").unwrap();
        assert_eq!(h.get_with(rid, |r| Ok(r.len())).unwrap(), Some(5));
        let no = |_: &[u8]| Err::<(), _>(JaguarError::Corruption("no".into()));
        assert!(h.get_with(rid, no).is_err());
    }

    struct NoopHook;
    impl crate::buffer::WalHook for NoopHook {
        fn before_page_write(&self, _page_lsn: u64) -> Result<()> {
            Ok(())
        }
    }

    /// Reads through a pool far smaller than the file: every page is
    /// evicted over and over, and none of that is a write.
    #[test]
    fn reads_leave_no_trace() {
        for hooked in [false, true] {
            let h = heap(512, 8);
            if hooked {
                h.pool().set_wal_hook(Arc::new(NoopHook));
            }
            let mut rids = Vec::new();
            for i in 0..300u32 {
                rids.push(h.insert(format!("record-{i:0>90}").as_bytes()).unwrap());
                // "Commit" as the WAL would, so the load itself can evict.
                h.pool().commit_unlogged(&h.pool().snapshot_unlogged());
            }
            rids.push(h.insert(&vec![7u8; 2000]).unwrap()); // spilled
            h.pool().commit_unlogged(&h.pool().snapshot_unlogged());
            h.pool().flush_all().unwrap();
            let before = h.pool().stats();

            for _ in 0..3 {
                assert_eq!(h.scan().unwrap().len(), rids.len());
                for rid in &rids {
                    h.get(*rid).unwrap();
                }
            }
            let after = h.pool().stats();
            assert!(after.evictions > before.evictions + 100, "{after:?}");
            assert_eq!(after.writebacks, before.writebacks, "hooked={hooked}");
            assert!(h.pool().snapshot_unlogged().is_empty(), "hooked={hooked}");
        }
    }

    #[test]
    fn delete_hides_from_scan_and_get() {
        let h = heap(512, 16);
        let a = h.insert(b"keep").unwrap();
        let b = h.insert(b"drop").unwrap();
        assert_eq!(h.delete(b).unwrap().as_deref(), Some(&b"drop"[..]));
        assert_eq!(h.delete(b).unwrap(), None, "already gone: not an error");
        assert!(h.get(b).is_err());
        assert_eq!(h.get(a).unwrap(), b"keep");
        let recs: Vec<_> = h.scan().unwrap().into_iter().map(|r| r.1).collect();
        assert_eq!(recs, vec![b"keep".to_vec()]);
    }

    #[test]
    fn deleting_spilled_record_recycles_pages() {
        let h = heap(512, 64);
        let big = vec![4u8; 3000];
        let rid = h.insert(&big).unwrap();
        let pages_after_insert = h.file_pages();
        assert_eq!(h.delete(rid).unwrap(), Some(big.clone()));
        // Re-inserting the same record should reuse freed pages rather than
        // growing the file.
        let rid2 = h.insert(&big).unwrap();
        assert_eq!(h.file_pages(), pages_after_insert);
        assert_eq!(h.get(rid2).unwrap(), big);
    }

    /// A table under steady churn stays the size of its live rows.
    #[test]
    fn space_freed_by_delete_is_reused() {
        let h = heap(512, 64);
        let record = |i: u32| format!("record-{i:0>30}").into_bytes();
        let rids: Vec<_> = (0..600).map(|i| h.insert(&record(i)).unwrap()).collect();
        let pages = h.file_pages();
        assert!((40..MAX_HOLES as u32).contains(&pages), "{pages} pages");
        let reuses = h.hole_reuses.get();
        for rid in &rids {
            h.delete(*rid).unwrap();
        }
        for i in 0..600 {
            h.insert(&record(i)).unwrap();
        }
        assert_eq!(h.file_pages(), pages, "insert N, delete N, insert N");
        assert!(h.hole_reuses.get() > reuses);
        assert_eq!(h.scan().unwrap().len(), 600);
    }

    #[test]
    fn update_rewrites_a_record_where_it_lies() {
        let h = heap(512, 64);
        let rid = h.insert(b"before").unwrap();
        let other = h.insert(&[9u8; 300]).unwrap();
        let pages = h.file_pages();
        // The replaced record is shown to the caller in place, first.
        let seen = h.update(rid, b"after!", |old| Ok(old.to_vec())).unwrap();
        assert!(matches!(seen, Updated::InPlace(old) if old == b"before"));
        assert_eq!(h.get(rid).unwrap(), b"after!");
        // 10,000 same-width updates (and shrinking and growing ones that
        // still fit the page) move nothing and grow nothing.
        for i in 0..10_000u32 {
            let new = format!("{i:06}");
            let new = &new.as_bytes()[..6 - (i % 3) as usize];
            assert!(matches!(
                h.update(rid, new, |_| Ok(())).unwrap(),
                Updated::InPlace(())
            ));
            assert_eq!(h.get(rid).unwrap(), new);
        }
        assert_eq!(h.get(other).unwrap(), [9u8; 300]);
        assert_eq!(h.file_pages(), pages);
        assert_eq!(h.scan().unwrap().len(), 2);
        // No room on the page, a spilled new version, a spilled old one:
        // nothing is written and the caller moves the record itself.
        for big in [vec![1u8; 400], vec![1u8; 2000]] {
            assert!(matches!(
                h.update(rid, &big, |_| Ok(())).unwrap(),
                Updated::NoRoom
            ));
        }
        let spilled = h.insert(&vec![2u8; 2000]).unwrap();
        assert!(matches!(
            h.update(spilled, b"small", |_| Ok(())).unwrap(),
            Updated::NoRoom
        ));
        assert_eq!(h.get(rid).unwrap(), b"009999");
        assert_eq!(h.get(spilled).unwrap(), vec![2u8; 2000]);
        // A record another statement deleted is reported, not an error.
        h.delete(rid).unwrap();
        assert!(matches!(
            h.update(rid, b"late", |_| Ok(())).unwrap(),
            Updated::Gone
        ));
        // A caller that rejects the old record leaves it untouched.
        let rejected = h.update(other, b"x", |_| {
            Err::<(), _>(JaguarError::Corruption("no".into()))
        });
        assert!(rejected.is_err());
        assert_eq!(h.get(other).unwrap(), [9u8; 300]);
    }

    /// A remembered page that turns out to be full is probed under the
    /// shared latch: it stays clean, so the next commit does not log it.
    #[test]
    fn a_full_remembered_page_is_not_dirtied_by_the_insert_that_skips_it() {
        let h = heap(512, 16);
        h.pool().set_wal_hook(Arc::new(NoopHook));
        let first = h.insert(&[1u8; 200]).unwrap();
        let gone = h.insert(&[2u8; 100]).unwrap();
        let second = h.insert(&[3u8; 300]).unwrap();
        assert!(first.page == gone.page && second.page != first.page);
        h.delete(gone).unwrap(); // `first.page` is remembered…
        h.pool().commit_unlogged(&h.pool().snapshot_unlogged());
        let big = h.insert(&[4u8; 300]).unwrap(); // …and too full for this.
        assert!(big.page != first.page && big.page != second.page);
        let unlogged = h.pool().snapshot_unlogged();
        assert!(
            unlogged.iter().all(|(p, _)| *p != first.page),
            "{unlogged:?}"
        );
    }

    #[test]
    fn reopen_preserves_records() {
        let disk = Arc::new(DiskManager::in_memory(512));
        let pool = Arc::new(BufferPool::new(Arc::clone(&disk), 16));
        let rid = {
            let h = Arc::new(HeapFile::create(Arc::clone(&pool)).unwrap());
            let rid = h.insert(b"persistent").unwrap();
            h.pool().flush_all().unwrap();
            rid
        };
        let h2 = Arc::new(HeapFile::open(pool).unwrap());
        assert_eq!(h2.get(rid).unwrap(), b"persistent");
    }

    #[test]
    fn open_rejects_garbage() {
        let disk = Arc::new(DiskManager::in_memory(512));
        let pool = Arc::new(BufferPool::new(disk, 4));
        assert!(HeapFile::open(Arc::clone(&pool)).is_err()); // empty
                                                             // Allocate a non-header page 0.
        let h = pool.allocate().unwrap();
        {
            let mut b = h.write();
            SlottedPage::init(&mut b);
        }
        drop(h);
        assert!(HeapFile::open(pool).is_err());
    }

    #[test]
    fn many_records_with_tiny_pool_exercise_eviction() {
        let h = heap(256, 4);
        let mut rids = Vec::new();
        for i in 0..500u32 {
            rids.push(h.insert(&i.to_le_bytes()).unwrap());
        }
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.get(*rid).unwrap(), (i as u32).to_le_bytes());
        }
        assert!(h.pool().stats().evictions > 0);
    }

    /// A heap scan fetches as a scan: over a heap three times the pool,
    /// every scan after the first finds all but a frame or two resident.
    #[test]
    fn a_rescan_finds_a_pool_of_the_heap_resident() {
        let h = heap(512, 8);
        while h.file_pages() < 1 + 3 * 8 {
            h.insert(&[7; 100]).unwrap();
        }
        let scan = || {
            let hits = h.pool().stats().hits;
            let mut pages = h.pages(1, u32::MAX);
            while pages.next_page(|_, _| Ok(())).unwrap() {}
            h.pool().stats().hits - hits
        };
        scan();
        assert!(scan() >= 8 - 2);
        assert!(scan() >= 8 - 2);
    }
}
