//! Page-addressed file I/O.
//!
//! A [`DiskManager`] owns one file divided into fixed-size pages. Every
//! write seals the page checksum; every read verifies it, so silent on-disk
//! corruption surfaces as [`JaguarError::Corruption`] instead of garbage
//! query results.
//!
//! An in-memory variant backs temporary databases (examples, tests, and the
//! benchmark harness use it so experiment timings measure the execution
//! designs, not the host filesystem — the paper likewise subtracts "basic
//! system costs", Figure 4).
//!
//! Reads share the backing store: a file is read with `pread`
//! (`read_exact_at`), which moves no file cursor, and the memory store is
//! copied under a shared lock, so the buffer pool's misses on different
//! pages proceed side by side. Writes, [`DiskManager::allocate_page`] and
//! [`DiskManager::sync`] take the store exclusively.
//!
//! Each read, write and sync first consults its fault site
//! (`storage.disk.read`, `storage.disk.write`, `storage.disk.fsync`); a
//! fired site fails that one operation with its injected error.

use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::fault;
use jaguar_common::ids::PageId;
use parking_lot::RwLock;

use crate::page::{seal_checksum, verify_checksum};

enum Backing {
    File(File),
    Memory(Vec<u8>),
}

/// Thread-safe page-granular storage.
pub struct DiskManager {
    page_size: usize,
    backing: RwLock<Backing>,
    /// Pages in the file. Written only under `backing`'s exclusive lock,
    /// after the page it counts is in the backing store (`Release`); read
    /// without the lock by [`DiskManager::page_count`] (`Acquire`), so that
    /// a scan asking how long the file is does not queue behind another
    /// thread's write.
    page_count: AtomicU32,
}

impl DiskManager {
    /// Open (or create) a file-backed manager. An existing file must contain
    /// a whole number of pages of the given size.
    pub fn open(path: &Path, page_size: usize) -> Result<DiskManager> {
        assert!(page_size >= 64, "page size too small to hold headers");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(JaguarError::Corruption(format!(
                "file length {len} is not a multiple of page size {page_size}"
            )));
        }
        Ok(DiskManager {
            page_size,
            backing: RwLock::new(Backing::File(file)),
            page_count: AtomicU32::new((len / page_size as u64) as u32),
        })
    }

    /// A purely in-memory manager (temporary databases).
    pub fn in_memory(page_size: usize) -> DiskManager {
        assert!(page_size >= 64, "page size too small to hold headers");
        DiskManager {
            page_size,
            backing: RwLock::new(Backing::Memory(Vec::new())),
            page_count: AtomicU32::new(0),
        }
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Pages in the file, read without taking the I/O lock: every page
    /// below the count can be read, and a page being appended right now is
    /// counted once it can be.
    pub fn page_count(&self) -> u32 {
        self.page_count.load(Ordering::Acquire)
    }

    /// Append a fresh zeroed page and return its id.
    pub fn allocate_page(&self) -> Result<PageId> {
        let mut backing = self.backing.write();
        let id = self.page_count();
        if id == u32::MAX {
            return Err(JaguarError::Storage("file full: page ids exhausted".into()));
        }
        let mut sealed = vec![0u8; self.page_size];
        // A zeroed page has checksum-of-zeros; seal so a read-back verifies.
        seal_checksum(&mut sealed);
        // The extension rides the write fault site: an INSERT that grows the
        // file sees the same injected faults as one updating in place.
        fault::check("storage.disk.write")?;
        match &mut *backing {
            Backing::File(f) => {
                f.seek(SeekFrom::Start(id as u64 * self.page_size as u64))?;
                f.write_all(&sealed)?;
            }
            Backing::Memory(m) => m.extend_from_slice(&sealed),
        }
        self.page_count.store(id + 1, Ordering::Release);
        Ok(PageId(id))
    }

    /// Read a page into `buf` (must be exactly one page long), verifying
    /// its checksum. Holds the store shared, for the copy only.
    pub fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        assert_eq!(buf.len(), self.page_size);
        let backing = self.backing.read();
        if id.0 >= self.page_count() {
            return Err(JaguarError::Storage(format!("{id} does not exist")));
        }
        let off = id.0 as usize * self.page_size;
        fault::check("storage.disk.read")?;
        match &*backing {
            Backing::File(f) => f.read_exact_at(buf, off as u64)?,
            Backing::Memory(m) => buf.copy_from_slice(&m[off..off + self.page_size]),
        }
        drop(backing);
        verify_checksum(buf)
    }

    /// Seal the checksum in place and write a page.
    pub fn write_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        assert_eq!(buf.len(), self.page_size);
        seal_checksum(buf);
        let mut backing = self.backing.write();
        if id.0 >= self.page_count() {
            return Err(JaguarError::Storage(format!("{id} does not exist")));
        }
        let off = id.0 as usize * self.page_size;
        fault::check("storage.disk.write")?;
        match &mut *backing {
            Backing::File(f) => {
                f.seek(SeekFrom::Start(off as u64))?;
                f.write_all(buf)?;
            }
            Backing::Memory(m) => m[off..off + self.page_size].copy_from_slice(buf),
        }
        Ok(())
    }

    /// Flush file-backed data all the way to stable storage (`sync_all`,
    /// i.e. `fsync`: data *and* metadata, so a freshly extended file keeps
    /// its length across power loss). In-memory backings are a no-op.
    pub fn sync(&self) -> Result<()> {
        if let Backing::File(f) = &mut *self.backing.write() {
            fault::check("storage.disk.fsync")?;
            f.flush()?;
            f.sync_all()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_alloc_write_read() {
        let dm = DiskManager::in_memory(256);
        let a = dm.allocate_page().unwrap();
        let b = dm.allocate_page().unwrap();
        assert_eq!(a, PageId(0));
        assert_eq!(b, PageId(1));
        assert_eq!(dm.page_count(), 2);

        let mut buf = vec![0u8; 256];
        buf[100] = 42;
        dm.write_page(b, &mut buf).unwrap();

        let mut back = vec![0u8; 256];
        dm.read_page(b, &mut back).unwrap();
        assert_eq!(back[100], 42);
    }

    #[test]
    fn fresh_page_reads_back_clean() {
        let dm = DiskManager::in_memory(128);
        let id = dm.allocate_page().unwrap();
        let mut buf = vec![0u8; 128];
        dm.read_page(id, &mut buf).unwrap(); // checksum of zeroed page verifies
        assert!(buf[4..].iter().all(|&b| b == 0));
    }

    #[test]
    fn missing_page_is_error() {
        let dm = DiskManager::in_memory(128);
        let mut buf = vec![0u8; 128];
        assert!(dm.read_page(PageId(0), &mut buf).is_err());
        assert!(dm.write_page(PageId(5), &mut buf).is_err());
    }

    #[test]
    fn file_backed_roundtrip_and_reopen() {
        let dir = std::env::temp_dir().join(format!("jaguar-disk-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.db");
        let _ = std::fs::remove_file(&path);
        {
            let dm = DiskManager::open(&path, 256).unwrap();
            let id = dm.allocate_page().unwrap();
            let mut buf = vec![0u8; 256];
            buf[8] = 9;
            dm.write_page(id, &mut buf).unwrap();
            dm.sync().unwrap();
        }
        {
            let dm = DiskManager::open(&path, 256).unwrap();
            assert_eq!(dm.page_count(), 1);
            let mut buf = vec![0u8; 256];
            dm.read_page(PageId(0), &mut buf).unwrap();
            assert_eq!(buf[8], 9);
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_with_bad_length_is_corruption() {
        let dir = std::env::temp_dir().join(format!("jaguar-disk2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.db");
        std::fs::write(&path, vec![0u8; 100]).unwrap(); // not a multiple of 256
        assert!(DiskManager::open(&path, 256).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn on_disk_corruption_detected() {
        let dm = DiskManager::in_memory(128);
        let id = dm.allocate_page().unwrap();
        let mut buf = vec![0u8; 128];
        buf[50] = 1;
        dm.write_page(id, &mut buf).unwrap();
        // Corrupt the backing store directly.
        if let Backing::Memory(m) = &mut *dm.backing.write() {
            m[60] ^= 0xFF;
        }
        let mut back = vec![0u8; 128];
        let err = dm.read_page(id, &mut back).unwrap_err();
        assert!(err.to_string().contains("checksum"));
    }
}
