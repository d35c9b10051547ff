//! The storage read path, end to end on an on-disk database: reads take
//! only shared page latches, so they neither pin pages into the pool as
//! "unlogged" nor add anything to the next commit.

use std::path::PathBuf;
use std::sync::Mutex;

use jaguar_core::{Config, Database, SyncMode, Tuple, Value};

/// `wal.bytes` is a process-global counter: the tests here take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jaguar-readpath-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `big(id, grp, pad)` with an index on `id`, `rows` rows of ≈ 120 bytes,
/// loaded with a commit every 500 rows (uncommitted pages cannot be
/// evicted, so a load must commit before it outgrows the pool).
fn load_big(db: &Database, rows: i64) {
    db.execute("CREATE TABLE big (id INT, grp INT, pad VARCHAR)")
        .unwrap();
    db.execute("CREATE INDEX big_id ON big (id)").unwrap();
    let t = db.catalog().table("big").unwrap();
    for id in 0..rows {
        t.insert(Tuple::new(vec![
            Value::Int(id),
            Value::Int(id % 7),
            Value::Str(format!("{id:0>100}")),
        ]))
        .unwrap();
        if id % 500 == 499 {
            t.commit_durable().unwrap();
        }
    }
    t.commit_durable().unwrap();
}

fn int(row: &Tuple, col: usize) -> i64 {
    row.get(col).unwrap().as_int().unwrap()
}

/// Fails before the shared-latch read path with `buffer pool exhausted:
/// all 32 frames pinned or holding unlogged changes`: every page a scan
/// touched became unevictable, and a SELECT never commits.
#[test]
fn select_over_on_disk_table_larger_than_the_pool() {
    let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    const POOL: usize = 32;
    const ROWS: i64 = 8_000;
    for dop in [1, 2] {
        let dir = fresh_dir(&format!("big{dop}"));
        let config = Config::default()
            .with_sync_mode(SyncMode::Normal)
            .with_buffer_pool_pages(POOL)
            .with_dop(dop);
        let db = Database::open(&dir, config).unwrap();
        load_big(&db, ROWS);
        let t = db.catalog().table("big").unwrap();
        assert!(
            t.heap_pages() as usize >= 3 * POOL,
            "table must be ≥ 3× the pool, has {} pages",
            t.heap_pages()
        );

        let count = db.execute("SELECT COUNT(*) FROM big").unwrap();
        assert_eq!(int(&count.rows[0], 0), ROWS, "dop={dop}");

        let sql = "SELECT grp, COUNT(*), SUM(id) FROM big WHERE grp <> 3 GROUP BY grp";
        assert_eq!(
            db.explain(sql).unwrap().contains("Gather"),
            dop == 2,
            "dop={dop}"
        );
        let mut groups: Vec<(i64, i64, i64)> = db
            .execute(sql)
            .unwrap()
            .rows
            .iter()
            .map(|r| (int(r, 0), int(r, 1), int(r, 2)))
            .collect();
        groups.sort_unstable();
        let expected: Vec<(i64, i64, i64)> = (0..7)
            .filter(|g| *g != 3)
            .map(|g| {
                let ids = (0..ROWS).filter(|id| id % 7 == g);
                (g, ids.clone().count() as i64, ids.sum())
            })
            .collect();
        assert_eq!(groups, expected, "dop={dop}");

        let point = "SELECT pad FROM big WHERE id = 4321";
        assert!(db.explain(point).unwrap().contains("IndexScan"));
        let rows = db.execute(point).unwrap().rows;
        assert_eq!(rows.len(), 1);
        assert_eq!(
            rows[0].get(0).unwrap(),
            &Value::Str(format!("{:0>100}", 4321))
        );

        assert!(t.pool_stats().evictions as usize > 2 * POOL, "dop={dop}");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A commit logs the pages its statement changed — not the pages earlier
/// SELECTs merely read.
#[test]
fn reads_add_nothing_to_the_next_commit() {
    let _g = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let dir = fresh_dir("wal");
    let config = Config::default().with_sync_mode(SyncMode::Normal);
    let page_size = config.page_size as u64;
    let db = Database::open(&dir, config).unwrap();
    load_big(&db, 2_000);

    for k in 0..1_000i64 {
        let sql = match k % 3 {
            0 => format!("SELECT pad FROM big WHERE id = {}", (k * 37) % 2_000),
            1 => {
                let lo = (k * 13) % 1_900;
                format!(
                    "SELECT id, grp FROM big WHERE id >= {lo} AND id < {}",
                    lo + 20
                )
            }
            _ => "SELECT COUNT(*) FROM big".to_string(),
        };
        assert!(!db.execute(&sql).unwrap().rows.is_empty(), "{sql}");
    }

    // A page image is the page plus well under 128 bytes of framing, and
    // the Begin/Commit markers are a few dozen bytes: whole pages logged.
    let images = |logged: u64| logged / page_size;
    for (dml, at_least, at_most) in [
        // Heap page and index leaf, either of which may have just split.
        ("INSERT INTO big VALUES (5000, 1, 'new')", 1, 4),
        // Same width, non-indexed column: the row's own page, rewritten
        // where it lies, and no B+Tree page.
        ("UPDATE big SET grp = 9 WHERE id = 77", 1, 1),
        // The row's page and its index leaf (which may merge).
        ("DELETE FROM big WHERE id = 1234", 1, 3),
    ] {
        let before = db.metrics().counter("wal.bytes");
        assert_eq!(db.execute(dml).unwrap().affected, 1, "{dml}");
        let logged = db.metrics().counter("wal.bytes") - before;
        assert!(
            (at_least..=at_most).contains(&images(logged)) && logged % page_size < 512,
            "{dml} logged {logged} bytes: not {at_least} to {at_most} page images"
        );
    }
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
