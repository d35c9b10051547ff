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
//! When constructed with a [`PageCipher`] (encryption at rest), the page
//! *body* (bytes `COMMON_HEADER..`) is sealed on every write and opened on
//! every read. In-memory frames handed to callers are always plaintext with
//! zeroed sec fields — encryption is strictly an I/O-boundary transform, so
//! the buffer pool, WAL replay idempotence, and every layer above are
//! unaware of it. The first 40 header bytes (checksum, type, slot counts,
//! LSN, sec fields) stay plaintext: checksums verify and recovery can
//! extend files without the key.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::ids::PageId;
use jaguar_common::retry::{self, RetryPolicy};
use jaguar_common::{fault, obs};
use jaguar_sec::{metrics as sec_metrics, PageCipher};
use parking_lot::Mutex;

use crate::page::{
    seal_checksum, sec_marker, sec_nonce, sec_tag, set_sec_fields, verify_checksum, COMMON_HEADER,
    SEC_MARKER_ENCRYPTED,
};

/// Run one fault-injectable I/O step under the storage retry policy.
///
/// Every attempt consults the named fault site first, so the chaos harness
/// can model both *transient* faults (`site=1`: the first attempt fails,
/// the retry recovers, the statement succeeds) and *permanent* ones (a
/// bare always-on `site`: retries exhaust and the statement fails cleanly,
/// never poisoning the engine). Only injected faults and `Interrupted`
/// syscalls are transient; real media errors surface on the first attempt,
/// and `read_exact`/`write_all` absorb `Interrupted` internally, so a real
/// partial transfer is never re-driven.
fn with_storage_retry<T>(site: &str, mut op: impl FnMut() -> Result<T>) -> Result<T> {
    RetryPolicy::storage().run(site, retry::is_transient_storage, || {
        if fault::should_fail(site) {
            obs::global().counter("storage.faults_injected").inc();
            return Err(JaguarError::Io(std::io::Error::other(format!(
                "injected fault at {site}"
            ))));
        }
        op()
    })
}

enum Backing {
    File(File),
    Memory(Vec<u8>),
}

/// Thread-safe page-granular storage.
pub struct DiskManager {
    page_size: usize,
    cipher: Option<Arc<dyn PageCipher>>,
    backing: Mutex<Backing>,
    /// Pages in the file. Written only under `backing`'s mutex, after the
    /// page it counts is in the backing store (`Release`); read without the
    /// mutex by [`DiskManager::page_count`] (`Acquire`), so that a scan
    /// asking how long the file is does not queue behind another thread's
    /// page read.
    page_count: AtomicU32,
}

impl DiskManager {
    /// Open (or create) a file-backed manager. An existing file must contain
    /// a whole number of pages of the given size.
    pub fn open(path: &Path, page_size: usize) -> Result<DiskManager> {
        DiskManager::open_with_cipher(path, page_size, None)
    }

    /// Open (or create) a file-backed manager that seals page bodies with
    /// `cipher` on write and opens them on read (`None` = plaintext).
    pub fn open_with_cipher(
        path: &Path,
        page_size: usize,
        cipher: Option<Arc<dyn PageCipher>>,
    ) -> Result<DiskManager> {
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
            cipher,
            backing: Mutex::new(Backing::File(file)),
            page_count: AtomicU32::new((len / page_size as u64) as u32),
        })
    }

    /// A purely in-memory manager (temporary databases).
    pub fn in_memory(page_size: usize) -> DiskManager {
        assert!(page_size >= 64, "page size too small to hold headers");
        DiskManager {
            page_size,
            cipher: None,
            backing: Mutex::new(Backing::Memory(Vec::new())),
            page_count: AtomicU32::new(0),
        }
    }

    /// Transform a plaintext in-memory page into its on-disk sealed form:
    /// stamp the sec fields, encrypt the body, seal the checksum over the
    /// ciphertext. The WAL commit path uses this so logged page images are
    /// byte-identical to what [`DiskManager::write_page`] would persist —
    /// recovery replay then writes log bytes verbatim without the key.
    pub fn seal_for_disk(cipher: &dyn PageCipher, id: PageId, buf: &mut [u8]) {
        let nonce = cipher.next_nonce();
        let tag = cipher.seal(id.0 as u64, nonce, &mut buf[COMMON_HEADER..]);
        set_sec_fields(buf, SEC_MARKER_ENCRYPTED, nonce, tag);
        seal_checksum(buf);
        obs::global().counter(sec_metrics::PAGES_ENCRYPTED).inc();
    }

    /// Inverse of [`DiskManager::seal_for_disk`]: verify the tag, decrypt
    /// the body in place, zero the sec fields. Checksum is assumed already
    /// verified. Plaintext pages (marker 0) pass through only while they
    /// are still all-zero — the shape recovery replay leaves behind when it
    /// extends a file past a hole — otherwise opening a plaintext body with
    /// a cipher configured is corruption (someone bypassed encryption).
    fn open_from_disk(cipher: &dyn PageCipher, id: PageId, buf: &mut [u8]) -> Result<()> {
        match sec_marker(buf) {
            SEC_MARKER_ENCRYPTED => {
                let (nonce, tag) = (sec_nonce(buf), sec_tag(buf));
                cipher.open(id.0 as u64, nonce, tag, &mut buf[COMMON_HEADER..])?;
                crate::page::clear_sec_fields(buf);
                obs::global().counter(sec_metrics::PAGES_DECRYPTED).inc();
                Ok(())
            }
            0 if buf[4..].iter().all(|&b| b == 0) => Ok(()),
            0 => Err(JaguarError::Corruption(format!(
                "{id}: plaintext page body in an encrypted database"
            ))),
            other => Err(JaguarError::Corruption(format!(
                "{id}: unknown page encryption marker {other:#x}"
            ))),
        }
    }

    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Pages in the file, read without taking the I/O mutex: every page
    /// below the count can be read, and a page being appended right now is
    /// counted once it can be.
    pub fn page_count(&self) -> u32 {
        self.page_count.load(Ordering::Acquire)
    }

    /// Append a fresh zeroed page and return its id.
    pub fn allocate_page(&self) -> Result<PageId> {
        let mut backing = self.backing.lock();
        let id = self.page_count();
        if id == u32::MAX {
            return Err(JaguarError::Storage("file full: page ids exhausted".into()));
        }
        let mut sealed = vec![0u8; self.page_size];
        // A zeroed page has checksum-of-zeros; seal so a read-back verifies.
        // Under encryption even the fresh zero body is sealed, so the only
        // plaintext pages an encrypted file can hold are recovery-extended
        // holes.
        match &self.cipher {
            Some(c) => DiskManager::seal_for_disk(c.as_ref(), PageId(id), &mut sealed),
            None => seal_checksum(&mut sealed),
        }
        // The extension rides the write fault site: an INSERT that grows the
        // file sees the same injected faults as one updating in place.
        with_storage_retry("storage.disk.write", || {
            match &mut *backing {
                Backing::File(f) => {
                    f.seek(SeekFrom::Start(id as u64 * self.page_size as u64))?;
                    f.write_all(&sealed)?;
                }
                Backing::Memory(m) => m.extend_from_slice(&sealed),
            }
            Ok(())
        })?;
        self.page_count.store(id + 1, Ordering::Release);
        Ok(PageId(id))
    }

    /// Read a page into `buf` (must be exactly one page long), verifying
    /// its checksum.
    pub fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        assert_eq!(buf.len(), self.page_size);
        let mut backing = self.backing.lock();
        if id.0 >= self.page_count() {
            return Err(JaguarError::Storage(format!("{id} does not exist")));
        }
        let off = id.0 as usize * self.page_size;
        with_storage_retry("storage.disk.read", || {
            match &mut *backing {
                Backing::File(f) => {
                    f.seek(SeekFrom::Start(off as u64))?;
                    f.read_exact(buf)?;
                }
                Backing::Memory(m) => buf.copy_from_slice(&m[off..off + self.page_size]),
            }
            Ok(())
        })?;
        drop(backing);
        verify_checksum(buf)?;
        match &self.cipher {
            Some(c) => DiskManager::open_from_disk(c.as_ref(), id, buf),
            None if sec_marker(buf) == SEC_MARKER_ENCRYPTED => Err(JaguarError::SecurityViolation(
                format!("{id} is encrypted; opening this database requires its encryption_key"),
            )),
            None => Ok(()),
        }
    }

    /// Seal the checksum and write a page. Under encryption the caller's
    /// buffer is left untouched (plaintext, zero sec fields) and a sealed
    /// scratch copy is written instead; otherwise the checksum is sealed in
    /// place, as before.
    pub fn write_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        assert_eq!(buf.len(), self.page_size);
        let mut scratch;
        let out: &mut [u8] = match &self.cipher {
            Some(c) => {
                scratch = buf.to_vec();
                // Already-sealed bytes (WAL replay writing logged on-disk
                // images verbatim) pass through: sealing twice would
                // double-encrypt.
                if sec_marker(&scratch) != SEC_MARKER_ENCRYPTED {
                    DiskManager::seal_for_disk(c.as_ref(), id, &mut scratch);
                } else {
                    seal_checksum(&mut scratch);
                }
                &mut scratch
            }
            None => {
                seal_checksum(buf);
                buf
            }
        };
        let mut backing = self.backing.lock();
        if id.0 >= self.page_count() {
            return Err(JaguarError::Storage(format!("{id} does not exist")));
        }
        let off = id.0 as usize * self.page_size;
        with_storage_retry("storage.disk.write", || {
            match &mut *backing {
                Backing::File(f) => {
                    f.seek(SeekFrom::Start(off as u64))?;
                    f.write_all(out)?;
                }
                Backing::Memory(m) => m[off..off + self.page_size].copy_from_slice(out),
            }
            Ok(())
        })
    }

    /// Flush file-backed data all the way to stable storage (`sync_all`,
    /// i.e. `fsync`: data *and* metadata, so a freshly extended file keeps
    /// its length across power loss). In-memory backings are a no-op.
    pub fn sync(&self) -> Result<()> {
        if let Backing::File(f) = &mut *self.backing.lock() {
            with_storage_retry("storage.disk.fsync", || {
                f.flush()?;
                f.sync_all()?;
                Ok(())
            })?;
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

    fn test_cipher() -> Arc<dyn PageCipher> {
        Arc::new(jaguar_sec::JaguarAead::new([3u8; jaguar_sec::KEY_LEN]))
    }

    #[test]
    fn encrypted_roundtrip_keeps_frames_plaintext() {
        let dir = std::env::temp_dir().join(format!("jaguar-disk-enc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("enc.db");
        let _ = std::fs::remove_file(&path);
        let dm = DiskManager::open_with_cipher(&path, 256, Some(test_cipher())).unwrap();
        let id = dm.allocate_page().unwrap();
        let mut buf = vec![0u8; 256];
        let secret = b"TOP-SECRET-ROW";
        buf[COMMON_HEADER + 10..COMMON_HEADER + 10 + secret.len()].copy_from_slice(secret);
        dm.write_page(id, &mut buf).unwrap();
        // Caller's frame untouched: still plaintext, sec fields still zero.
        assert_eq!(
            &buf[COMMON_HEADER + 10..COMMON_HEADER + 10 + secret.len()],
            secret
        );
        assert_eq!(sec_marker(&buf), 0);
        // The raw file never contains the plaintext.
        dm.sync().unwrap();
        let raw = std::fs::read(&path).unwrap();
        assert!(
            !raw.windows(secret.len()).any(|w| w == secret),
            "plaintext leaked to disk"
        );
        // Read back decrypts and zeroes the sec fields.
        let mut back = vec![0u8; 256];
        dm.read_page(id, &mut back).unwrap();
        assert_eq!(
            &back[COMMON_HEADER + 10..COMMON_HEADER + 10 + secret.len()],
            secret
        );
        assert_eq!(sec_marker(&back), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn wrong_key_and_keyless_reads_fail_cleanly() {
        let dir = std::env::temp_dir().join(format!("jaguar-disk-enc2-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("enc2.db");
        let _ = std::fs::remove_file(&path);
        {
            let dm = DiskManager::open_with_cipher(&path, 256, Some(test_cipher())).unwrap();
            let id = dm.allocate_page().unwrap();
            let mut buf = vec![0u8; 256];
            buf[COMMON_HEADER] = 7;
            dm.write_page(id, &mut buf).unwrap();
            dm.sync().unwrap();
        }
        // Wrong key: checksum passes (plaintext header), tag fails.
        let wrong: Arc<dyn PageCipher> =
            Arc::new(jaguar_sec::JaguarAead::new([4u8; jaguar_sec::KEY_LEN]));
        let dm = DiskManager::open_with_cipher(&path, 256, Some(wrong)).unwrap();
        let mut buf = vec![0u8; 256];
        let err = dm.read_page(PageId(0), &mut buf).unwrap_err();
        assert!(err.to_string().contains("tag mismatch"), "{err}");
        // No key at all: explicit "encrypted" error, not garbage.
        let dm = DiskManager::open(&path, 256).unwrap();
        let err = dm.read_page(PageId(0), &mut buf).unwrap_err();
        assert!(err.to_string().contains("encryption_key"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn replay_extended_zero_page_tolerated_under_cipher() {
        let dir = std::env::temp_dir().join(format!("jaguar-disk-enc3-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("enc3.db");
        let _ = std::fs::remove_file(&path);
        // Recovery extends files with a *plain* DiskManager (no key needed).
        {
            let dm = DiskManager::open(&path, 256).unwrap();
            dm.allocate_page().unwrap();
            dm.sync().unwrap();
        }
        let dm = DiskManager::open_with_cipher(&path, 256, Some(test_cipher())).unwrap();
        let mut buf = vec![0u8; 256];
        dm.read_page(PageId(0), &mut buf).unwrap();
        assert!(buf[4..].iter().all(|&b| b == 0));
        // But a *non-zero* plaintext body in an encrypted database is
        // corruption, not silent acceptance.
        {
            let plain = DiskManager::open(&path, 256).unwrap();
            let mut b = vec![0u8; 256];
            b[COMMON_HEADER] = 1;
            plain.write_page(PageId(0), &mut b).unwrap();
        }
        let err = dm.read_page(PageId(0), &mut buf).unwrap_err();
        assert!(err.to_string().contains("plaintext page body"), "{err}");
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
        if let Backing::Memory(m) = &mut *dm.backing.lock() {
            m[60] ^= 0xFF;
        }
        let mut back = vec![0u8; 128];
        let err = dm.read_page(id, &mut back).unwrap_err();
        assert!(err.to_string().contains("checksum"));
    }
}
