//! Allocation counts of the scan → filter → aggregate loop.
//!
//! Timings cannot gate in tier-1; allocation counts can, because they
//! repeat exactly. This binary installs a counting allocator (per thread,
//! so the test harness's own threads do not disturb it) and pins what the
//! read path costs per row over a table of the `scan_agg` workload's shape:
//!
//! * a scan that wants `{grp, v}` allocates the row's `Vec<Value>` and
//!   nothing else — the 80-byte `pad` is stepped over in its page;
//! * the grouped aggregate over it allocates per *group*, not per row.
//!
//! Before records were decoded in place and pruned, the same scan made 6
//! allocations per row (a copy of the record, the values, and the blob read
//! through a growing `Vec` and then moved into its `Arc`) and the statement
//! 9; now they make 1.02 and 1.03.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jaguar_core::{ByteArray, ColumnSet, Config, Database, Tuple, Value};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`, and the caller vouches for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) this thread makes while `f` runs.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const ROWS: u64 = 10_000;

#[test]
fn scan_and_aggregate_allocate_per_row_what_they_keep() {
    let db = Database::with_config(Config::default().with_dop(1));
    db.execute("CREATE TABLE wide (id INT, grp INT, v INT, pad BYTEARRAY)")
        .unwrap();
    let table = db.catalog().table("wide").unwrap();
    for id in 0..ROWS as i64 {
        table
            .insert(Tuple::new(vec![
                Value::Int(id),
                Value::Int(id % 16),
                Value::Int((id * 37) % 1000),
                Value::Bytes(ByteArray::patterned(80, id as u64)),
            ]))
            .unwrap();
    }
    let pages = u64::from(table.heap_pages());
    let scan = |cols: ColumnSet| {
        allocations(|| {
            let rows = (table.scan_with(&cols, 1..u32::MAX)).try_fold(0, |n, r| r.map(|_| n + 1));
            assert_eq!(rows.unwrap(), ROWS);
        })
        .0
    };
    let wanted = || ColumnSet::of(4, [1, 2]);

    scan(wanted()); // first use pays one-off set-up (metric handles)
    let pruned = scan(wanted());
    assert_eq!(pruned, scan(wanted()), "counts repeat exactly");
    assert!(
        pruned <= ROWS * 12 / 10 + pages * 4,
        "{pruned} allocations for {ROWS} rows on {pages} pages"
    );
    // Every column: the pad's one `Arc<[u8]>` more, and no more.
    let full = scan(ColumnSet::all());
    assert!(full > pruned && full <= pruned + ROWS, "{full} vs {pruned}");

    let sql = "SELECT grp, COUNT(*), SUM(v) FROM wide WHERE v >= 0 GROUP BY grp";
    let plan = db.explain(sql).unwrap();
    assert!(plan.contains("SeqScan wide [grp, v]"), "{plan}");
    let statement = || {
        let (n, r) = allocations(|| db.execute(sql).unwrap());
        assert_eq!((r.rows.len(), r.stats.rows_scanned), (16, ROWS));
        n
    };
    statement();
    let grouped = statement();
    assert_eq!(grouped, statement(), "counts repeat exactly");
    assert!(
        grouped <= pruned + ROWS / 10,
        "parse, plan, filter and aggregate added {} allocations over {ROWS} rows",
        grouped - pruned
    );
    eprintln!("pages {pages}: scan pruned {pruned}, full {full}; statement {grouped}");
}
