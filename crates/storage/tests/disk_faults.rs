//! Disk-manager behaviour under injected faults.
//!
//! Fault sites are process-global, so arming one fails the same call in
//! every thread of the process. These tests therefore live in a test binary
//! of their own — armed beside the crate's unit tests they made whichever
//! B+Tree or heap test happened to write a page at that moment fail — and
//! take turns among themselves.
//!
//! A fired site fails the one operation that consulted it; nothing retries
//! it. The `loading_frame` cases drive the buffer pool's miss path, whose
//! read runs outside the pool mutex: a fetch of a page that is being read
//! in, a read that fails for good, and eviction beside loads in flight.

use std::sync::Arc;
use std::time::{Duration, Instant};

use jaguar_common::ids::PageId;
use jaguar_common::{fault, obs};
use jaguar_storage::page::verify_checksum;
use jaguar_storage::{BufferPool, DiskManager};

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

/// A counted fault fails that read, and the next read succeeds.
#[test]
fn injected_transient_read_fault_recovers() {
    let _g = serial();
    let dm = DiskManager::in_memory(128);
    let id = dm.allocate_page().unwrap();
    fault::arm("storage.disk.read", 1);
    let mut buf = vec![0u8; 128];
    let err = dm.read_page(id, &mut buf).unwrap_err();
    assert!(err
        .to_string()
        .contains("injected fault at storage.disk.read"));
    dm.read_page(id, &mut buf).unwrap();
    fault::disarm("storage.disk.read");
}

#[test]
fn injected_permanent_write_fault_fails_cleanly() {
    let _g = serial();
    let dm = DiskManager::in_memory(128);
    let id = dm.allocate_page().unwrap();
    let mut buf = vec![0u8; 128];
    fault::arm("storage.disk.write", fault::ALWAYS);
    let err = dm.write_page(id, &mut buf).unwrap_err();
    assert!(err.to_string().contains("injected"), "{err}");
    fault::disarm("storage.disk.write");
    // Not poisoned: the identical write now succeeds and reads back.
    dm.write_page(id, &mut buf).unwrap();
    let mut back = vec![0u8; 128];
    dm.read_page(id, &mut back).unwrap();
}

#[test]
fn injected_fsync_fault_surfaces_then_clears() {
    let _g = serial();
    let dir = std::env::temp_dir().join(format!("jaguar-disk-fs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sync.db");
    let _ = std::fs::remove_file(&path);
    let dm = DiskManager::open(&path, 256).unwrap();
    dm.allocate_page().unwrap();
    fault::arm("storage.disk.fsync", fault::ALWAYS);
    assert!(dm.sync().is_err());
    fault::disarm("storage.disk.fsync");
    dm.sync().unwrap();
    let _ = std::fs::remove_file(&path);
}

#[test]
fn failed_write_back_keeps_the_page_dirty() {
    let _g = serial();
    let pool = Arc::new(BufferPool::new(Arc::new(DiskManager::in_memory(128)), 1));
    let a = {
        let h = pool.allocate().unwrap();
        h.write()[100] = 7;
        h.id()
    };
    let b = pool.disk().allocate_page().unwrap();
    fault::arm("storage.disk.write", fault::ALWAYS);
    assert!(pool.fetch(b).is_err(), "evicting `a` needs its write-back");
    fault::disarm("storage.disk.write");
    // The failed eviction must not have marked `a` clean: this one writes
    // it back, and the byte survives the round trip.
    drop(pool.fetch(b).unwrap());
    assert_eq!(pool.fetch(a).unwrap().read()[100], 7);
}

/// `pages` pages of `size` bytes, page `i` holding `i + 1` at byte 100.
fn marked_pages(pages: u8, size: usize) -> (Arc<DiskManager>, Vec<PageId>) {
    let disk = Arc::new(DiskManager::in_memory(size));
    let ids = (0..pages)
        .map(|i| {
            let id = disk.allocate_page().unwrap();
            let mut buf = vec![0u8; size];
            buf[100] = i + 1;
            disk.write_page(id, &mut buf).unwrap();
            id
        })
        .collect();
    (disk, ids)
}

/// (a) A fetch of a page whose load is in flight waits for the loader and
/// sees the page's verified bytes — never the zeros of a fresh frame or
/// the victim's old page, which the one frame holds until the read lands.
/// The loader is held inside its loading window — at the read's fault
/// site — until the second fetch has pinned the frame and found it
/// loading, so the two always meet.
#[test]
fn loading_frame_shows_a_concurrent_fetch_only_verified_bytes() {
    let _g = serial();
    let (disk, ids) = marked_pages(2, 8 << 20);
    let (page, victim) = (ids[0], ids[1]);
    let pool = Arc::new(BufferPool::new(disk, 1));
    let waits = obs::global().counter("storage.bufferpool.load_waits");
    drop(pool.fetch(victim).unwrap());
    let (waited, missed) = (waits.get(), pool.stats().misses);
    fault::arm_hold("storage.disk.read");
    let loader = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || pool.fetch(page).map(|h| h.read()[100]))
    };
    // The miss is counted under the pool mutex that the loader holds
    // until the page is mapped and marked loading; then it parks, inside
    // its window, until the site is disarmed.
    while pool.stats().misses == missed {
        std::thread::yield_now();
    }
    let fetch = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || {
            let handle = pool.fetch(page).unwrap();
            let bytes = handle.read();
            (bytes[100], verify_checksum(&bytes).is_ok())
        })
    };
    // The fetch has met the frame once it counts a wait; one that returns
    // first did not wait for the load, and one that blocks elsewhere ends
    // the look at the deadline.
    let deadline = Instant::now() + Duration::from_secs(10);
    while waits.get() == waited && !fetch.is_finished() && Instant::now() < deadline {
        std::thread::yield_now();
    }
    fault::disarm("storage.disk.read");
    let (byte, verified) = fetch.join().unwrap();
    assert_eq!(byte, 1, "the page's own bytes");
    assert!(verified, "the page's checksum holds");
    assert_eq!(loader.join().unwrap().unwrap(), 1);
    assert!(waits.get() > waited, "the fetch waited on the load");
}

/// (b) A read that fails for good fails the loader and every fetch that
/// waited on it, leaves the page unmapped, and frees the frame: failing
/// fetches of more pages than the pool has frames do not exhaust it.
#[test]
fn loading_frame_read_fault_reaches_every_waiter_and_frees_the_frame() {
    let _g = serial();
    const FRAMES: usize = 3;
    let (disk, ids) = marked_pages(FRAMES as u8 + 1, 128);
    let pool = Arc::new(BufferPool::new(disk, FRAMES));
    fault::arm("storage.disk.read", fault::ALWAYS);
    let failed: Vec<String> = std::thread::scope(|s| {
        let fetches: Vec<_> = (0..4)
            .map(|_| s.spawn(|| pool.fetch(ids[0]).err().map(|e| e.to_string())))
            .collect();
        fetches
            .into_iter()
            .map(|f| f.join().unwrap().unwrap())
            .collect()
    });
    assert!(failed.iter().all(|e| e.contains("injected")), "{failed:?}");
    for id in &ids {
        assert!(pool.fetch(*id).is_err());
    }
    fault::disarm("storage.disk.read");
    let misses = pool.stats().misses;
    let held: Vec<_> = ids[..FRAMES]
        .iter()
        .map(|id| pool.fetch(*id).unwrap())
        .collect();
    for (i, handle) in held.iter().enumerate() {
        assert_eq!(handle.read()[100], i as u8 + 1);
    }
    assert_eq!(
        pool.stats().misses,
        misses + FRAMES as u64,
        "a page whose read failed is not left mapped"
    );
}

/// (c) Eviction races loads: two threads fetch pages at random through a
/// two-frame pool whose reads fail now and then. No frame is taken while
/// it is loading, so every handle shows its own page, checksum intact; a
/// fetch fails only with the injected fault, never for want of a frame.
#[test]
fn loading_frame_is_never_evicted() {
    let _g = serial();
    let (disk, ids) = marked_pages(8, 128);
    let pool = Arc::new(BufferPool::new(disk, 2));
    fault::arm_probabilistic("storage.disk.read", 0.3, 7);
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (pool, ids) = (&pool, &ids);
            s.spawn(move || {
                let mut x = 0x9E37_79B9_7F4A_7C15 ^ t;
                for _ in 0..150 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let i = (x % ids.len() as u64) as usize;
                    match pool.fetch(ids[i]) {
                        Ok(handle) => {
                            assert_eq!(handle.read()[100], i as u8 + 1);
                            verify_checksum(&handle.read()).unwrap();
                        }
                        Err(e) => assert!(e.to_string().contains("injected"), "{e}"),
                    }
                }
            });
        }
    });
    fault::disarm("storage.disk.read");
}
