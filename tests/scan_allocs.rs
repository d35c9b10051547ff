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

use jaguar_core::{ByteArray, ColumnSet, Config, Database, Tuple, Value};

#[path = "counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

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
