//! The counting `#[global_allocator]` shared by the allocation-count test
//! binaries (`scan_allocs.rs`, `vm_allocs.rs`, `crates/sql/tests/memo_allocs.rs`,
//! `crates/common/tests/registry_allocs.rs`; each includes this file with
//! `#[path]`). Counts calls, live bytes and their peak per thread, so the
//! test harness's own threads do not disturb a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated less bytes it freed.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since `peak_live_bytes` last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: i64) {
    let _ = LIVE.try_with(|n| {
        n.set(n.get() + bytes);
        let _ = PEAK.try_with(|p| p.set(p.get().max(n.get())));
    });
}

// SAFETY: defers every operation to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        grow(layout.size() as i64);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        grow(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`, and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while `f` runs.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Bytes this thread has allocated and not freed (negative if it freed
/// what another thread allocated). Differences are what a test compares.
#[allow(dead_code)]
pub fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// The most bytes this thread held live while `f` ran, above what it held
/// when `f` started.
#[allow(dead_code)]
pub fn peak_live_bytes<T>(f: impl FnOnce() -> T) -> (i64, T) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (PEAK.with(Cell::get) - base, out)
}
