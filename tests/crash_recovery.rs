//! Crash-recovery harness: kill a child process at every named crash point
//! in the commit path, reopen the database, and assert the durability
//! contract — committed transactions stay, uncommitted ones vanish.
//!
//! The harness re-executes this very test binary as the victim: the hidden
//! `crash_child` test below runs one phase (set up committed state, or
//! perform the insert that dies mid-commit) driven by environment
//! variables, and `jaguar_wal::fault` aborts it at the armed point.

use std::path::{Path, PathBuf};
use std::process::Command;

use jaguar_core::wal::fault::{CRASH_POINTS, CRASH_POINT_ENV, TORN_TAIL_ENV};
use jaguar_core::{ColumnSet, Config, Database, SyncMode, Tuple, Value};

const DIR_ENV: &str = "JAGUAR_HARNESS_DIR";
const PHASE_ENV: &str = "JAGUAR_HARNESS_PHASE";
/// When set, harness children open the database with this encryption
/// passphrase — the same durability matrix, with every page and WAL image
/// sealed.
const ENC_ENV: &str = "JAGUAR_HARNESS_ENC";

/// The recovery counters (`wal.recovered_txns`, `wal.replayed_pages`) are
/// process-global and every test here reopens a database: they take turns.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

fn harness_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jaguar-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn config() -> Config {
    let c = Config::default().with_sync_mode(SyncMode::Full);
    match std::env::var(ENC_ENV) {
        Ok(key) => c.with_encryption_key(key),
        Err(_) => c,
    }
}

/// Re-exec this test binary, running only the `crash_child` helper with the
/// given phase and extra environment.
fn spawn_child(dir: &Path, phase: &str, extra_env: &[(&str, &str)]) -> std::process::ExitStatus {
    let exe = std::env::current_exe().unwrap();
    let mut cmd = Command::new(exe);
    cmd.args(["crash_child", "--exact", "--ignored", "--test-threads=1"])
        .env(DIR_ENV, dir)
        .env(PHASE_ENV, phase)
        .env_remove(CRASH_POINT_ENV)
        .env_remove(TORN_TAIL_ENV)
        .env_remove(ENC_ENV);
    for (k, v) in extra_env {
        cmd.env(k, v);
    }
    let out = cmd.output().unwrap();
    if !out.status.success() {
        // Aborts are expected for armed children; surface output on the
        // parent's stderr to make genuine failures diagnosable.
        eprintln!("--- child ({phase}) stderr ---");
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
    }
    out.status
}

/// On Unix an `abort()` shows up as death-by-signal (no exit code); a
/// panicking or failing child test instead exits with a code. Asserting on
/// this distinguishes "died at the crash point" from "harness bug".
fn assert_died_abruptly(status: std::process::ExitStatus, context: &str) {
    assert!(!status.success(), "{context}: child exited cleanly");
    #[cfg(unix)]
    assert!(
        status.code().is_none(),
        "{context}: child exited with code {:?}, expected death by signal (abort)",
        status.code()
    );
}

/// Values of column `a` in table `t`, sorted.
fn rows(db: &Database) -> Vec<i64> {
    let r = db.execute("SELECT a FROM t").unwrap();
    let mut v: Vec<i64> = r
        .rows
        .iter()
        .map(|row| match row.get(0).unwrap() {
            Value::Int(i) => *i,
            other => panic!("unexpected value {other:?}"),
        })
        .collect();
    v.sort_unstable();
    v
}

/// `(a, b)` of every row of table `u`, sorted.
fn pairs(db: &Database) -> Vec<(i64, i64)> {
    let r = db.execute("SELECT a, b FROM u").unwrap();
    let int = |t: &Tuple, i| t.get(i).unwrap().as_int().unwrap();
    let mut v: Vec<(i64, i64)> = r.rows.iter().map(|t| (int(t, 0), int(t, 1))).collect();
    v.sort_unstable();
    v
}

/// What `setup` leaves in `u`.
const U_ROWS: [(i64, i64); 3] = [(1, 10), (2, 20), (3, 30)];

/// The doomed statements: a harness phase, and what the database holds
/// after recovery if the statement's commit record reached the log —
/// `t`'s `a` values and `u`'s rows. If it did not, `setup`'s state stands.
type Scenario = (&'static str, &'static [i64], &'static [(i64, i64)]);
const SCENARIOS: [Scenario; 3] = [
    ("crash", &[1, 2], &U_ROWS),
    ("crash_update", &[1], &[(1, 10), (2, 21), (3, 30)]),
    ("crash_reuse", &[1], &[(2, 20), (3, 30), (4, 40)]),
];

/// The victim, spawned by the tests below. Hidden from normal runs.
#[test]
#[ignore = "helper: re-executed as the crash victim by the harness tests"]
fn crash_child() {
    let Some(dir) = std::env::var_os(DIR_ENV) else {
        return;
    };
    let phase = std::env::var(PHASE_ENV).unwrap_or_default();
    let db = Database::open(PathBuf::from(dir), config()).unwrap();
    match phase.as_str() {
        // Committed baseline: one durable row, clean close.
        "setup" => {
            db.execute("CREATE TABLE t (a INT)").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            db.execute("CREATE TABLE u (a INT, b INT)").unwrap();
            db.execute("INSERT INTO u VALUES (1, 10), (2, 20), (3, 30)")
                .unwrap();
            db.close().unwrap();
        }
        // The doomed statement: the armed crash point (or torn-tail
        // simulation) aborts the process inside this commit.
        "crash" => {
            db.execute("INSERT INTO t VALUES (2)").unwrap();
            // Reached only if nothing was armed — a harness bug. Exit with
            // a code (not a signal) so the parent can tell the difference.
            eprintln!("crash_child: insert completed without aborting");
            std::process::exit(3);
        }
        // An index-driven UPDATE that rewrites its row where it lies. The
        // index is built without a commit (its pages ride in the doomed
        // one): a `CREATE INDEX` statement would die at the crash point
        // itself.
        "crash_update" => {
            let u = db.catalog().table("u").unwrap();
            u.create_index("u_a", "a").unwrap();
            let sql = "UPDATE u SET b = 21 WHERE a = 2";
            assert!(db.explain(sql).unwrap().contains("[in place] ← IndexScan"));
            db.execute(sql).unwrap();
            eprintln!("crash_child: update completed without aborting");
            std::process::exit(3);
        }
        // An INSERT into the space a DELETE freed, both in the doomed
        // commit: the page image carries a tombstoned slot reused.
        "crash_reuse" => {
            let u = db.catalog().table("u").unwrap();
            let (rid, _) = (u.scan().map(Result::unwrap))
                .find(|(_, row)| row.get(0).unwrap() == &Value::Int(1))
                .unwrap();
            let pages = u.heap_pages();
            assert!(u.delete(rid).unwrap());
            let new = u
                .insert(Tuple::new(vec![Value::Int(4), Value::Int(40)]))
                .unwrap();
            assert_eq!((new, u.heap_pages()), (rid, pages), "the hole is reused");
            assert!(u.get(new, &ColumnSet::all()).unwrap().is_some());
            u.commit_durable().unwrap();
            eprintln!("crash_child: commit completed without aborting");
            std::process::exit(3);
        }
        other => panic!("unknown harness phase {other:?}"),
    }
}

/// Kill the child at every registered crash point in turn; after each
/// crash, recovery must keep the committed row and must not resurrect the
/// row whose commit never became durable. Points at or past the commit
/// record reaching the OS survive a process crash (the file keeps data the
/// process already wrote).
#[test]
fn every_crash_point_recovers_to_a_consistent_state() {
    let _turn = serial();
    for (phase, t_committed, u_committed) in SCENARIOS {
        for point in CRASH_POINTS {
            let context = format!("{phase} at {point}");
            let dir = harness_dir(&format!("{phase}-{}", point.replace('.', "-")));
            let setup = spawn_child(&dir, "setup", &[]);
            assert!(setup.success(), "{context}: setup child failed");

            let status = spawn_child(&dir, phase, &[(CRASH_POINT_ENV, point)]);
            assert_died_abruptly(status, &context);

            let before = jaguar_core::obs::global().snapshot();
            let db = Database::open(&dir, config()).unwrap();
            let after = db.metrics();

            // A process crash preserves everything already written to the
            // log file, so the commit record's mere write makes the txn
            // visible to recovery; only points before it lose the
            // in-flight statement.
            let committed = matches!(*point, "wal.after_commit_write" | "wal.after_commit_sync");
            let (t, u) = if committed {
                (t_committed, u_committed)
            } else {
                (&[1][..], &U_ROWS[..])
            };
            assert_eq!(rows(&db), t, "{context}: wrong rows after recovery");
            assert_eq!(pairs(&db), u, "{context}: wrong rows after recovery");

            let recovered =
                after.counter("wal.recovered_txns") - before.counter("wal.recovered_txns");
            assert_eq!(
                recovered,
                u64::from(committed),
                "{context}: wrong wal.recovered_txns delta"
            );
            if committed {
                let replayed =
                    after.counter("wal.replayed_pages") - before.counter("wal.replayed_pages");
                assert!(replayed >= 1, "{context}: no pages replayed");
            }
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A torn commit record (half a frame on the log tail, as after a power
/// cut mid-sector) must roll the transaction back: the CRC check stops the
/// scan cleanly and the txn has no commit marker.
#[test]
fn torn_commit_record_rolls_back() {
    let _turn = serial();
    let dir = harness_dir("torn");
    let setup = spawn_child(&dir, "setup", &[]);
    assert!(setup.success(), "setup child failed");

    let status = spawn_child(&dir, "crash", &[(TORN_TAIL_ENV, "1")]);
    assert_died_abruptly(status, "torn tail");

    let db = Database::open(&dir, config()).unwrap();
    assert_eq!(rows(&db), vec![1], "torn commit must not be replayed");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Without any fault armed, a kill-free double-open round-trips all data
/// and recovery is a no-op after the clean close.
#[test]
fn clean_close_needs_no_recovery() {
    let _turn = serial();
    let dir = harness_dir("clean");
    {
        let db = Database::open(&dir, config()).unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        db.close().unwrap();
    }
    let before = jaguar_core::obs::global().snapshot();
    let db = Database::open(&dir, config()).unwrap();
    let after = db.metrics();
    assert_eq!(rows(&db), vec![1, 2, 3]);
    assert_eq!(
        after.counter("wal.recovered_txns"),
        before.counter("wal.recovered_txns"),
        "clean close must leave nothing to recover"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A statement that fails mid-way (second INSERT row has the wrong type)
/// has no rollback: its partial effects are visible — and must be sealed
/// as that statement's *own* WAL transaction at failure time, not left
/// unlogged to ride inside the next statement's commit. With the seal, the
/// partial row survives a crash that happens before any later statement.
#[test]
fn failed_statement_partial_effects_are_sealed() {
    let _turn = serial();
    let dir = harness_dir("partial");
    {
        let db = Database::open(&dir, config()).unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        let err = db
            .execute("INSERT INTO t VALUES (1), ('oops')")
            .unwrap_err();
        assert!(err.to_string().contains("expects INT"), "{err}");
        // No rollback: the first row is visible…
        assert_eq!(rows(&db), vec![1]);
        // …and the crash (no checkpoint, no clean close) happens here.
        std::mem::forget(db);
    }
    let db = Database::open(&dir, config()).unwrap();
    assert_eq!(
        rows(&db),
        vec![1],
        "partial effects must be durable at failure time, not deferred"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The durability matrix again, with encryption at rest switched on: every
/// crash point must recover to the same consistent state it does for a
/// plaintext database — committed stays, uncommitted vanishes — with WAL
/// replay operating on sealed page images throughout.
#[test]
fn every_crash_point_recovers_with_encryption_on() {
    let _turn = serial();
    const KEY: &str = "crash-harness-passphrase";
    for (phase, t_committed, u_committed) in SCENARIOS {
        for point in jaguar_core::wal::fault::CRASH_POINTS {
            let context = format!("{phase} at {point}");
            let dir = harness_dir(&format!("enc-{phase}-{}", point.replace('.', "-")));
            let setup = spawn_child(&dir, "setup", &[(ENC_ENV, KEY)]);
            assert!(setup.success(), "{context}: encrypted setup child failed");

            let status = spawn_child(&dir, phase, &[(CRASH_POINT_ENV, point), (ENC_ENV, KEY)]);
            assert_died_abruptly(status, &context);

            let db = Database::open(
                &dir,
                Config::default()
                    .with_sync_mode(SyncMode::Full)
                    .with_encryption_key(KEY),
            )
            .unwrap();
            let committed = matches!(*point, "wal.after_commit_write" | "wal.after_commit_sync");
            let (t, u) = if committed {
                (t_committed, u_committed)
            } else {
                (&[1][..], &U_ROWS[..])
            };
            assert_eq!(
                rows(&db),
                t,
                "{context}: wrong rows after encrypted recovery"
            );
            assert_eq!(
                pairs(&db),
                u,
                "{context}: wrong rows after encrypted recovery"
            );
            drop(db);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Opening an encrypted database with the wrong passphrase (or none) must
/// fail cleanly before any WAL replay touches a page — zero pages
/// replayed, and the original key still opens it afterwards.
#[test]
fn wrong_key_fails_cleanly_with_zero_pages_replayed() {
    let _turn = serial();
    const KEY: &str = "the-right-passphrase";
    let dir = harness_dir("wrongkey");
    let setup = spawn_child(&dir, "setup", &[(ENC_ENV, KEY)]);
    assert!(setup.success(), "encrypted setup child failed");
    // Crash mid-commit so a reopen genuinely has WAL work pending.
    let status = spawn_child(
        &dir,
        "crash",
        &[(CRASH_POINT_ENV, "wal.after_commit_write"), (ENC_ENV, KEY)],
    );
    assert_died_abruptly(status, "wrong-key harness");

    let base = Config::default().with_sync_mode(SyncMode::Full);
    let before = jaguar_core::obs::global().snapshot();
    let Err(err) = Database::open(&dir, base.clone().with_encryption_key("not-the-key")) else {
        panic!("wrong key must not open the database");
    };
    assert!(
        err.to_string().contains("encryption_key"),
        "wrong key must name the key problem: {err}"
    );
    let Err(err) = Database::open(&dir, base.clone()) else {
        panic!("missing key must not open the database");
    };
    assert!(
        err.to_string().contains("encryption_key"),
        "missing key must name the key problem: {err}"
    );
    let after = jaguar_core::obs::global().snapshot();
    assert_eq!(
        after.counter("wal.replayed_pages"),
        before.counter("wal.replayed_pages"),
        "a failed key check must not replay a single page"
    );
    // The right key still recovers the crashed commit.
    let db = Database::open(&dir, base.with_encryption_key(KEY)).unwrap();
    assert_eq!(rows(&db), vec![1, 2]);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Acceptance byte-scan: with encryption on, no data file and no WAL
/// segment may contain row plaintext. The same scan against a plaintext
/// twin database must find the sentinel — proving the scan itself works.
#[test]
fn encrypted_files_contain_no_plaintext() {
    let _turn = serial();
    const SENTINEL: &str = "TOPSECRET_TENANT_ROW_9481";

    fn populate(db: &Database) {
        db.execute("CREATE TABLE docs (id INT, body VARCHAR)")
            .unwrap();
        for i in 0..50 {
            db.execute(&format!("INSERT INTO docs VALUES ({i}, '{SENTINEL}')"))
                .unwrap();
        }
        // Leave WAL content behind too: checkpoint flushes pages, then one
        // more insert lands in the live log segment.
        db.checkpoint().unwrap();
        db.execute(&format!("INSERT INTO docs VALUES (999, '{SENTINEL}')"))
            .unwrap();
    }

    fn scan_files(dir: &Path, needle: &[u8]) -> Vec<PathBuf> {
        let mut hits = Vec::new();
        let mut stack = vec![dir.to_path_buf()];
        while let Some(d) = stack.pop() {
            for entry in std::fs::read_dir(&d).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                } else {
                    let bytes = std::fs::read(&path).unwrap();
                    if bytes.windows(needle.len()).any(|w| w == needle) {
                        hits.push(path);
                    }
                }
            }
        }
        hits
    }

    let enc_dir = harness_dir("scan-enc");
    {
        let db = Database::open(
            &enc_dir,
            Config::default().with_encryption_key("scan-passphrase"),
        )
        .unwrap();
        populate(&db);
        std::mem::forget(db); // no clean close: WAL tail stays on disk
    }
    let hits = scan_files(&enc_dir, SENTINEL.as_bytes());
    assert!(
        hits.is_empty(),
        "plaintext sentinel found in encrypted files: {hits:?}"
    );

    // Control: the identical workload without encryption must be visible
    // to the same scan, or the assertion above proves nothing.
    let plain_dir = harness_dir("scan-plain");
    {
        let db = Database::open(&plain_dir, Config::default()).unwrap();
        populate(&db);
        std::mem::forget(db);
    }
    let hits = scan_files(&plain_dir, SENTINEL.as_bytes());
    assert!(
        !hits.is_empty(),
        "control scan found nothing — the byte-scan is broken"
    );
    let _ = std::fs::remove_dir_all(&enc_dir);
    let _ = std::fs::remove_dir_all(&plain_dir);
}

/// `wal.*` metrics are visible through the public facade.
#[test]
fn wal_metrics_are_exposed() {
    let _turn = serial();
    let dir = harness_dir("metrics");
    let db = Database::open(&dir, config()).unwrap();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (7)").unwrap();
    db.checkpoint().unwrap();
    let m = db.metrics();
    assert!(m.counter("wal.commits") >= 1, "{m:?}");
    assert!(m.counter("wal.bytes") > 0);
    assert!(m.counter("wal.checkpoints") >= 1);
    assert!(m.counter("wal.fsyncs") >= 1);
    assert!(
        m.histogram("wal.commit_latency_us")
            .is_some_and(|h| h.count >= 1),
        "commit latency histogram missing"
    );
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
