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
//! * the grouped statement over it aggregates at its scan and allocates
//!   per *group*, not per row or page: its scan judges `v >= k` on the
//!   record's bytes and folds each survivor into its group from those
//!   bytes, with no row decoded;
//! * so does one whose scan rejects every row: a rejected record is walked
//!   to its tested column and no further;
//! * a comparison with a VARCHAR allocates the string the decode builds
//!   and nothing more: `eval` lends its operands;
//! * a GROUP BY over a VARCHAR folds at the scan too, keyed by the
//!   string's bytes where they lie: nothing per row;
//! * the point statements of the `oltp_mix` workload — an indexed SELECT,
//!   an in-place UPDATE and a DELETE, on an on-disk table — allocate no
//!   more per statement than they did when each ran its own serial
//!   pipeline, before every statement ran as a team of one.
//!
//! Before records were decoded in place and pruned, the same scan made 6
//! allocations per row (a copy of the record, the values, and the blob read
//! through a growing `Vec` and then moved into its `Arc`) and the statement
//! 9; then 1.02 and 1.03; then 0.03, with a decoded row's storage recycled
//! page after page; now it makes 0.012 (none per row), and the GROUP BY
//! over a VARCHAR 0.006 instead of 1.03.

use jaguar_core::{ByteArray, ColumnSet, Config, Database, SyncMode, Tuple, Value};

#[path = "counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

const ROWS: u64 = 10_000;

/// What a statement allocates whatever its table holds: parse, plan,
/// context, result.
const PER_STATEMENT: u64 = 80;

/// What an aggregate allocates per group it outputs, past the group's
/// share of its tables' growth: the group's row, finished and projected.
const PER_GROUP: u64 = 4;

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
        assert!(plan.contains("[at scan]"), "{plan}");
        assert!(
            *total <= PER_STATEMENT + pages + PER_GROUP * groups as u64,
            "{sql}: {total} allocations for {ROWS} rows on {pages} pages"
        );
    }
    // Rejected at the scan, a row is walked to its `v` and no further.
    assert!(
        no <= PER_STATEMENT + pages,
        "{no} allocations rejecting {ROWS} rows"
    );

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
    // Grouping by a VARCHAR folds at the scan, keyed by the string's bytes
    // where they lie: a group allocates and a row does not.
    let grouped = || {
        let sql = "SELECT name, COUNT(*) FROM named GROUP BY name";
        assert!(db.explain(sql).unwrap().contains("[at scan]"));
        let (n, r) = allocations(|| db.execute(sql).unwrap());
        assert_eq!(r.rows.len(), 2);
        n
    };
    grouped();
    let by_name = grouped();
    assert_eq!(by_name, grouped(), "counts repeat exactly");
    assert!(
        by_name <= PER_STATEMENT + named_pages + PER_GROUP * 2,
        "{by_name} allocations grouping {ROWS} strings on {named_pages} pages"
    );
    eprintln!(
        "pages {pages}: scan pruned {pruned}, full {full}; statement {every} \
         (every row passes), {no} (none does); string compare {compared}; \
         grouped by string {by_name}"
    );
}

/// What each point statement of `oltp_mix` allocated, repeating exactly
/// after warm-up, when SELECT had a serial branch of its own and DML its
/// own context, row source and fragment call: `(select, update, delete)`.
const OLTP_STATEMENT: (u64, u64, u64) = (43, 47, 40);

#[test]
fn oltp_point_statements_allocate_no_more_as_a_team_of_one() {
    let dir = std::env::temp_dir().join(format!("jaguar-allocs-oltp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The workload's configuration, at the dop of its 2-vCPU host.
    let config = Config::default()
        .with_sync_mode(SyncMode::Normal)
        .with_dop(2);
    let db = Database::open(&dir, config).unwrap();
    db.execute("CREATE TABLE acct (id INT, bal INT, tag BYTEARRAY)")
        .unwrap();
    let acct = db.catalog().table("acct").unwrap();
    for id in 0..1_000 {
        acct.insert(Tuple::new(vec![
            Value::Int(id),
            Value::Int(id * 7 % 1_000),
            Value::Bytes(ByteArray::patterned(16, id as u64)),
        ]))
        .unwrap();
    }
    acct.commit_durable().unwrap();
    db.execute("CREATE INDEX acct_id ON acct (id)").unwrap();
    db.checkpoint().unwrap();
    let workers = db.metrics().counter("par.workers");
    let mut counts = Vec::new();
    for round in 0..6 {
        let select = "SELECT bal FROM acct WHERE id = 500";
        let (s, r) = allocations(|| db.execute(select).unwrap());
        assert_eq!(r.rows.len(), 1);
        let update = format!("UPDATE acct SET bal = {} WHERE id = 600", 100 + round);
        let (u, r) = allocations(|| db.execute(&update).unwrap());
        assert_eq!(r.affected, 1);
        let delete = format!("DELETE FROM acct WHERE id = {}", 700 + round);
        let (d, r) = allocations(|| db.execute(&delete).unwrap());
        assert_eq!(r.affected, 1);
        counts.push((s, u, d));
    }
    // The first rounds pay one-off set-up (metric handles, the log's and
    // the free list's growth).
    let steady = counts[3];
    assert!(counts[3..].iter().all(|c| *c == steady), "{counts:?}");
    let (s, u, d) = steady;
    let (ps, pu, pd) = OLTP_STATEMENT;
    assert!(
        s <= ps && u <= pu && d <= pd,
        "select {s} (was {ps}), update {u} (was {pu}), delete {d} (was {pd})"
    );
    assert_eq!(
        db.metrics().counter("par.workers"),
        workers,
        "a team of one spawns no worker thread"
    );
    eprintln!("allocations per statement: select {s}, update {u}, delete {d}");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
