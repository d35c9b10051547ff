//! Disk-manager behaviour under injected faults.
//!
//! Fault sites are process-global, so arming one fails the same call in
//! every thread of the process. These tests therefore live in a test binary
//! of their own — armed beside the crate's unit tests they made whichever
//! B+Tree or heap test happened to write a page at that moment fail — and
//! take turns among themselves.

use std::sync::Arc;

use jaguar_common::fault;
use jaguar_storage::{BufferPool, DiskManager};

fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn injected_transient_read_fault_recovers() {
    let _g = serial();
    let dm = DiskManager::in_memory(128);
    let id = dm.allocate_page().unwrap();
    fault::arm("storage.disk.read", 1);
    let mut buf = vec![0u8; 128];
    // One injected failure; the storage retry policy absorbs it.
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
