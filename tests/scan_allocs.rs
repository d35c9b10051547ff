//! Allocation counts of the scan → filter → aggregate loop.
//!
//! Timings cannot gate in tier-1; allocation counts can, because they
//! repeat exactly. This binary installs a counting allocator (per thread,
//! so the test harness's own threads do not disturb it) and pins what the
//! read path costs per row over a table of the `scan_agg` workload's shape:
//!
//! * a scan that wants `{grp, v}` and hands out owned tuples
//!   (`Table::scan_with`) allocates the row's `Vec<Value>` and nothing
//!   else — the 80-byte `pad` is stepped over in its page;
//! * the grouped statement over it allocates per *page* and per *group*,
//!   not per row: its scan judges `v >= k` on the record's bytes and
//!   decodes the survivors into tuples it refills page after page, and the
//!   aggregate reads them where they are;
//! * a comparison with a VARCHAR allocates the string the decode builds
//!   and nothing more: `eval` lends its operands.
//!
//! Before records were decoded in place and pruned, the same scan made 6
//! allocations per row (a copy of the record, the values, and the blob read
//! through a growing `Vec` and then moved into its `Arc`) and the statement
//! 9; then 1.02 and 1.03; now the statement makes 0.03.

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

    let (mut every, mut no) = (0, 0);
    for (floor, groups, total) in [(0, 16, &mut every), (1000, 0, &mut no)] {
        let sql = format!("SELECT grp, COUNT(*), SUM(v) FROM wide WHERE v >= {floor} GROUP BY grp");
        let plan = db.explain(&sql).unwrap();
        assert!(plan.contains("SeqScan wide [grp, v]"), "{plan}");
        assert!(plan.contains("Filter[0] [at scan]"), "{plan}");
        let statement = || {
            let (n, r) = allocations(|| db.execute(&sql).unwrap());
            assert_eq!((r.rows.len(), r.stats.rows_scanned), (groups, ROWS));
            n
        };
        statement();
        *total = statement();
        assert_eq!(*total, statement(), "counts repeat exactly");
        assert!(
            *total <= ROWS / 20 + 6 * pages,
            "{sql}: {total} allocations for {ROWS} rows on {pages} pages"
        );
    }

    // `name = 'x'` is judged above the scan: the decode allocates each
    // row's string, and comparing it allocates nothing.
    db.execute("CREATE TABLE named (id INT, name VARCHAR)")
        .unwrap();
    let named = db.catalog().table("named").unwrap();
    for id in 0..ROWS as i64 {
        let name = if id % 3 == 0 { "x" } else { "someone else" };
        let row = vec![Value::Int(id), Value::Str(name.into())];
        named.insert(Tuple::new(row)).unwrap();
    }
    let count = || {
        let sql = "SELECT COUNT(*) FROM named WHERE name = 'x'";
        let (n, r) = allocations(|| db.execute(sql).unwrap());
        assert_eq!(r.rows[0].values(), [Value::Int((ROWS as i64 + 2) / 3)]);
        n
    };
    count();
    let compared = count();
    assert_eq!(compared, count(), "counts repeat exactly");
    let named_pages = u64::from(named.heap_pages());
    assert!(
        (ROWS..=ROWS + ROWS / 20 + 6 * named_pages).contains(&compared),
        "{compared} allocations for {ROWS} strings on {named_pages} pages"
    );
    eprintln!(
        "pages {pages}: scan pruned {pruned}, full {full}; statement {every} \
         (every row passes), {no} (none does); string compare {compared}"
    );
}
