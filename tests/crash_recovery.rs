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

use jaguar_core::wal::fault::{CRASH_POINTS, TORN_TAIL_SITE};
use jaguar_core::{ColumnSet, Config, Database, SyncMode, Tuple, Value};

const DIR_ENV: &str = "JAGUAR_HARNESS_DIR";
const PHASE_ENV: &str = "JAGUAR_HARNESS_PHASE";
/// The crash point (or [`TORN_TAIL_SITE`]) a victim child arms in
/// process, after the commits that precede its doomed one.
const CRASH_POINT_ENV: &str = "JAGUAR_HARNESS_CRASH_POINT";
/// The commit, counted from 1 in the `fsync_stop` child, whose log fsync
/// fails.
const FAIL_AT_ENV: &str = "JAGUAR_HARNESS_FAIL_AT";
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
    Config::default().with_sync_mode(SyncMode::Full)
}

/// Re-exec this test binary, running only the `crash_child` helper with the
/// given phase and extra environment.
fn spawn_child(dir: &Path, phase: &str, extra_env: &[(&str, &str)]) -> std::process::ExitStatus {
    let exe = std::env::current_exe().unwrap();
    let mut cmd = Command::new(exe);
    cmd.args(["crash_child", "--exact", "--ignored", "--test-threads=1"])
        .env(DIR_ENV, dir)
        .env(PHASE_ENV, phase)
        .env_remove(CRASH_POINT_ENV);
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

/// Every file in `dir` with its bytes, sorted by path.
fn files(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut all: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .map(|p| (p.clone(), std::fs::read(p).unwrap()))
        .collect();
    all.sort();
    all
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

/// A state of the database: `t`'s `a` values and `u`'s rows.
type State = (&'static [i64], &'static [(i64, i64)]);

/// Doomed statements on pages a commit of the same process has already
/// logged since the checkpoint `setup` ended with, so they log deltas: a
/// harness phase, the state its earlier commits leave, and the state after
/// recovery if the doomed commit's record reached the log.
const DELTA_SCENARIOS: [(&str, State, State); 3] = [
    (
        "delta_update",
        (&[1], &[(1, 10), (2, 22), (3, 30)]),
        (&[1], &[(1, 10), (2, 21), (3, 30)]),
    ),
    ("delta_delete", (&[1], &U_ROWS), (&[1], &[(2, 20), (3, 30)])),
    (
        "delta_reuse",
        (&[1], &[(2, 20), (3, 30)]),
        (&[1], &[(2, 20), (3, 30), (4, 40)]),
    ),
];

/// Arm what the parent passed in [`CRASH_POINT_ENV`]: the next commit
/// dies there.
fn arm_doomed_commit() {
    let site = std::env::var(CRASH_POINT_ENV).expect("a victim child is always armed");
    jaguar_core::wal::fault::arm(&site, 1);
}

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
            arm_doomed_commit();
            db.execute("INSERT INTO t VALUES (2)").unwrap();
            // Reached only if nothing was armed — a harness bug. Exit with
            // a code (not a signal) so the parent can tell the difference.
            eprintln!("crash_child: insert completed without aborting");
            std::process::exit(3);
        }
        // An index-driven UPDATE that rewrites its row where it lies.
        "crash_update" => {
            db.execute("CREATE INDEX u_a ON u (a)").unwrap();
            let sql = "UPDATE u SET b = 21 WHERE a = 2";
            assert!(db.explain(sql).unwrap().contains("[in place] ← IndexScan"));
            arm_doomed_commit();
            db.execute(sql).unwrap();
            eprintln!("crash_child: update completed without aborting");
            std::process::exit(3);
        }
        // An INSERT into the space a DELETE freed, both in the doomed
        // commit: the page image carries a tombstoned slot reused.
        "crash_reuse" => {
            arm_doomed_commit();
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
        // An in-place UPDATE of a heap page the previous UPDATE logged.
        "delta_update" => {
            db.execute("CREATE INDEX u_a ON u (a)").unwrap();
            db.execute("UPDATE u SET b = 22 WHERE a = 2").unwrap();
            let sql = "UPDATE u SET b = 21 WHERE a = 2";
            assert!(db.explain(sql).unwrap().contains("[in place] ← IndexScan"));
            arm_doomed_commit();
            db.execute(sql).unwrap();
            eprintln!("crash_child: update completed without aborting");
            std::process::exit(3);
        }
        // A DELETE that shifts the entries of a B+Tree leaf CREATE INDEX
        // logged.
        "delta_delete" => {
            db.execute("CREATE INDEX u_a ON u (a)").unwrap();
            arm_doomed_commit();
            db.execute("DELETE FROM u WHERE a = 1").unwrap();
            eprintln!("crash_child: delete completed without aborting");
            std::process::exit(3);
        }
        // An INSERT into the hole a committed DELETE left on its page.
        "delta_reuse" => {
            let u = db.catalog().table("u").unwrap();
            let (rid, _) = (u.scan().map(Result::unwrap))
                .find(|(_, row)| row.get(0).unwrap() == &Value::Int(1))
                .unwrap();
            assert!(u.delete(rid).unwrap());
            u.commit_durable().unwrap();
            arm_doomed_commit();
            let new = u
                .insert(Tuple::new(vec![Value::Int(4), Value::Int(40)]))
                .unwrap();
            assert_eq!(new, rid, "the hole is reused");
            u.commit_durable().unwrap();
            eprintln!("crash_child: commit completed without aborting");
            std::process::exit(3);
        }
        // Commit k inserts row k + 1. The log fsync fails from commit n on:
        // commit n fails with it, and commit n + 1 is refused with that
        // error, without a sync of its own. Then the process dies.
        "fsync_stop" => {
            use jaguar_common::fault;
            let n: i64 = std::env::var(FAIL_AT_ENV).unwrap().parse().unwrap();
            fault::arm_after("wal.fsync", n as u32 - 1, fault::ALWAYS);
            let insert = |k: i64| db.execute(&format!("INSERT INTO t VALUES ({})", k + 1));
            for k in 1..n {
                insert(k).unwrap();
            }
            let err = insert(n).unwrap_err().to_string();
            assert!(err.contains("injected fault at wal.fsync"), "{err}");
            let refused = insert(n + 1).unwrap_err().to_string();
            assert!(
                refused.contains("stopped") && refused.contains(&err),
                "{refused}"
            );
            std::process::abort();
        }
        other => panic!("unknown harness phase {other:?}"),
    }
}

/// Open the crashed database in `dir` and check it holds `want`; returns
/// the `wal.replayed_deltas` the open counted.
fn recover_and_check(dir: &Path, config: Config, want: State, context: &str) -> u64 {
    let before = jaguar_core::obs::global().snapshot();
    let db = Database::open(dir, config).unwrap();
    let after = db.metrics();
    assert_eq!(rows(&db), want.0, "{context}: wrong rows after recovery");
    assert_eq!(pairs(&db), want.1, "{context}: wrong rows after recovery");
    drop(db);
    after.counter("wal.replayed_deltas") - before.counter("wal.replayed_deltas")
}

/// The crash matrix on pages already logged since the last checkpoint:
/// every crash point and the torn tail recover to the state before or
/// after the doomed statement. When the doomed commit is kept, recovery
/// replays at least one delta.
#[test]
fn every_crash_point_recovers_delta_scenarios() {
    let _turn = serial();
    let arms = CRASH_POINTS.iter().copied().chain([TORN_TAIL_SITE]);
    for (phase, before, after) in DELTA_SCENARIOS {
        for arm in arms.clone() {
            let context = format!("{phase} at {arm}");
            let dir = harness_dir(&format!("{phase}-{}", arm.replace('.', "-")));
            assert!(
                spawn_child(&dir, "setup", &[]).success(),
                "{context}: setup"
            );
            assert_died_abruptly(
                spawn_child(&dir, phase, &[(CRASH_POINT_ENV, arm)]),
                &context,
            );

            let kept = matches!(arm, "wal.after_commit_write" | "wal.after_commit_sync");
            let want = if kept { after } else { before };
            let deltas = recover_and_check(&dir, config(), want, &context);
            if kept {
                assert!(deltas >= 1, "{context}: no delta replayed");
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
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

            // `crash_update`'s CREATE INDEX commits before the doomed
            // UPDATE, and is recovered whatever happens to it.
            let earlier = u64::from(phase == "crash_update");
            let recovered =
                after.counter("wal.recovered_txns") - before.counter("wal.recovered_txns");
            assert_eq!(
                recovered,
                earlier + u64::from(committed),
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

    let status = spawn_child(&dir, "crash", &[(CRASH_POINT_ENV, TORN_TAIL_SITE)]);
    assert_died_abruptly(status, "torn tail");

    let db = Database::open(&dir, config()).unwrap();
    assert_eq!(rows(&db), vec![1], "torn commit must not be replayed");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fail-stop: the log fsync fails at commit n, the next commit is refused
/// and the process dies. The reopen has every commit before n, commit n
/// whole or not at all (its reply was an error, so it is in doubt), and
/// nothing after it.
#[test]
fn a_failed_fsync_refuses_every_later_commit() {
    let _turn = serial();
    for n in [1i64, 3] {
        let context = format!("fsync fails at commit {n}");
        let dir = harness_dir(&format!("fsync-stop-{n}"));
        assert!(spawn_child(&dir, "setup", &[]).success(), "{context}");
        let fail_at = n.to_string();
        let status = spawn_child(&dir, "fsync_stop", &[(FAIL_AT_ENV, &fail_at)]);
        assert_died_abruptly(status, &context);
        let db = Database::open(&dir, config()).unwrap();
        let (got, acked) = (rows(&db), (1..=n).collect::<Vec<_>>());
        let with_n = (1..=n + 1).collect::<Vec<_>>();
        assert!(got == acked || got == with_n, "{context}: {got:?}");
        assert_eq!(pairs(&db), U_ROWS, "{context}");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Without any fault armed, a kill-free double-open round-trips all data
/// and recovery is a no-op after the clean close: the open and a read
/// write and sync nothing, and leave every file byte-identical, `wal.log`
/// included.
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
    let closed = files(&dir);
    let before = jaguar_core::obs::global().snapshot();
    let db = Database::open(&dir, config()).unwrap();
    assert_eq!(rows(&db), vec![1, 2, 3]);
    let after = db.metrics();
    for counter in ["wal.recovered_txns", "wal.bytes", "wal.fsyncs"] {
        assert_eq!(
            after.counter(counter),
            before.counter(counter),
            "clean close must leave nothing to recover: {counter}"
        );
    }
    assert!(files(&dir) == closed, "the open changed a file");
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// An open that keeps the clean log appends after its Checkpoint record:
/// a commit made then survives a crash and replays.
#[test]
fn a_commit_after_a_clean_open_survives_a_crash() {
    let _turn = serial();
    let dir = harness_dir("clean-append");
    let db = Database::open(&dir, config()).unwrap();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.close().unwrap();
    let log = dir.join(jaguar_core::wal::WAL_FILE);
    let clean = std::fs::read(&log).unwrap();
    let db = Database::open(&dir, config()).unwrap();
    db.execute("INSERT INTO t VALUES (2)").unwrap();
    std::mem::forget(db); // a crash: row 2 lives only in the log
    assert!(std::fs::read(&log).unwrap().starts_with(&clean));
    let before = jaguar_core::obs::global().snapshot();
    let db = Database::open(&dir, config()).unwrap();
    let after = db.metrics();
    assert_eq!(rows(&db), vec![1, 2]);
    let recovered = after.counter("wal.recovered_txns") - before.counter("wal.recovered_txns");
    assert_eq!(recovered, 1);
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

/// `wal.*` metrics are visible through the public facade.
#[test]
fn wal_metrics_are_exposed() {
    let _turn = serial();
    let dir = harness_dir("metrics");
    let before = jaguar_core::obs::global().snapshot();
    let db = Database::open(&dir, config()).unwrap();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (7)").unwrap();
    db.execute("INSERT INTO t VALUES (8)").unwrap();
    std::mem::forget(db); // a crash, so the reopen replays the delta
    let db = Database::open(&dir, config()).unwrap();
    db.checkpoint().unwrap();
    let m = db.metrics();
    let delta = |name| m.counter(name) - before.counter(name);
    assert!(delta("wal.page_images") >= 2, "{m:?}");
    assert!(delta("wal.page_deltas") >= 1, "{m:?}");
    assert!(delta("wal.replayed_deltas") >= 1, "{m:?}");
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

/// Bytes `wal.log` appends for `sql`, and the page images and deltas.
fn logged_by(db: &Database, sql: &str) -> (u64, u64, u64) {
    let before = db.metrics();
    db.execute(sql).unwrap();
    let after = db.metrics();
    let delta = |name| after.counter(name) - before.counter(name);
    (
        delta("wal.bytes"),
        delta("wal.page_images"),
        delta("wal.page_deltas"),
    )
}

/// A one-row in-place UPDATE of an INT on a page already imaged since the
/// checkpoint logs a delta — `Begin`, one `PageDelta`, `Commit` — of at
/// most 512 bytes, where the page's image alone is 8 KiB.
#[test]
fn delta_for_a_one_int_update_is_at_most_512_log_bytes() {
    let _turn = serial();
    let dir = harness_dir("delta-size");
    let db = Database::open(&dir, config()).unwrap();
    db.execute("CREATE TABLE acct (id INT, bal INT, tag VARCHAR)")
        .unwrap();
    for i in 0..40 {
        db.execute(&format!(
            "INSERT INTO acct VALUES ({i}, {i}, 'tag-{i:0>20}')"
        ))
        .unwrap();
    }
    db.execute("CREATE INDEX acct_id ON acct (id)").unwrap();
    db.checkpoint().unwrap();
    let (_, images, deltas) = logged_by(&db, "UPDATE acct SET bal = 1000 WHERE id = 3");
    assert_eq!((images, deltas), (1, 0), "the first log after a checkpoint");
    let (bytes, images, deltas) = logged_by(&db, "UPDATE acct SET bal = 2000 WHERE id = 4");
    assert_eq!((images, deltas), (0, 1));
    assert!(bytes <= 512, "{bytes} log bytes for one INT");
    drop(db);
    let db = Database::open(&dir, config()).unwrap();
    let r = db.execute("SELECT bal FROM acct WHERE id = 4").unwrap();
    assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(2000));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A database written under format v4, whose log may hold only full
/// images, or v5, whose pages carry a 40-byte header, is refused with the
/// version error before recovery touches a byte of it: the log and the
/// data files are as they were.
#[test]
fn delta_format_v4_and_v5_databases_are_refused_untouched() {
    let _turn = serial();
    for version in [4u32, 5] {
        let dir = harness_dir(&format!("format-v{version}"));
        let db = Database::open(&dir, config()).unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2)").unwrap();
        std::mem::forget(db); // the committed insert is still in the log
        let manifest = dir.join("catalog.manifest");
        let mut raw = std::fs::read(&manifest).unwrap();
        raw[4..8].copy_from_slice(&version.to_le_bytes());
        std::fs::write(&manifest, raw).unwrap();
        let before = files(&dir);
        let err = Database::open(&dir, config())
            .err()
            .unwrap_or_else(|| panic!("v{version} must be refused"));
        assert!(
            err.to_string().contains(&format!("format v{version}")),
            "{err}"
        );
        assert!(
            before == files(&dir),
            "v{version}: a refused open must change no file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Opening reads three files in turn: the manifest's format header, the
/// log, then the manifest's tables. Whichever of them fails to read, the
/// open fails and loses nothing: the manifest and — for the two read
/// before replay — the log are byte-identical afterwards, and an open that
/// can read them recovers every committed row.
#[test]
fn an_unreadable_log_or_manifest_fails_the_open_and_loses_nothing() {
    use jaguar_common::fault;
    use jaguar_common::fs::READ_EXISTING_SITE;
    let _turn = serial();
    const MANIFEST: &str = "catalog.manifest";
    let files = [MANIFEST, jaguar_core::wal::WAL_FILE, MANIFEST];
    for (reader, file) in files.into_iter().enumerate() {
        let dir = harness_dir(&format!("unreadable-{reader}"));
        let db = Database::open(&dir, config()).unwrap();
        db.execute("CREATE TABLE t (a INT)").unwrap();
        db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
        std::mem::forget(db); // the committed rows live only in the log
        let read = |name| std::fs::read(dir.join(name)).unwrap();
        let (manifest, log) = (read(MANIFEST), read(jaguar_core::wal::WAL_FILE));

        fault::arm_after(READ_EXISTING_SITE, reader as u32, 1);
        let opened = Database::open(&dir, config());
        fault::disarm(READ_EXISTING_SITE);
        let err = opened.err().expect("an unreadable database must not open");
        let (err, context) = (err.to_string(), format!("read {reader}, of the {file}"));
        assert!(
            err.contains("injected fault") && err.contains(file),
            "{context}: {err}"
        );
        assert!(read(MANIFEST) == manifest, "{context}: manifest changed");
        // The log is replayed and truncated before the third read.
        assert!(
            reader == 2 || read(jaguar_core::wal::WAL_FILE) == log,
            "{context}"
        );

        let db = Database::open(&dir, config()).unwrap();
        assert_eq!(rows(&db), vec![1, 2, 3], "{context}");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A DROP whose checkpoint fails stops the log, so the CREATE of a new
/// table of that name that follows is refused. The reopen replays the
/// dropped table's committed rows into a file the manifest no longer
/// names: `keep` reads back, and `t` is an unknown table.
#[test]
fn a_table_recreated_after_a_failed_drop_recovers_its_own_rows() {
    use jaguar_common::fault;
    let _turn = serial();
    let dir = harness_dir("recreate");
    let db = Database::open(&dir, config()).unwrap();
    db.execute("CREATE TABLE keep (a INT)").unwrap();
    db.execute("INSERT INTO keep VALUES (5)").unwrap();
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (-1)").unwrap();
    fault::arm("storage.disk.fsync", fault::ALWAYS);
    let dropped = db.execute("DROP TABLE t");
    fault::disarm("storage.disk.fsync");
    let err = dropped
        .expect_err("the drop's checkpoint must fail")
        .to_string();
    let refused = db
        .execute("CREATE TABLE t (a INT)")
        .unwrap_err()
        .to_string();
    assert!(
        refused.contains("stopped") && refused.contains(&err),
        "{refused}"
    );
    std::mem::forget(db); // a crash
    let db = Database::open(&dir, config()).unwrap();
    let keep = db.execute("SELECT a FROM keep").unwrap();
    assert_eq!(keep.rows[0].get(0).unwrap(), &Value::Int(5));
    // The DROP removed `t` from the manifest before its log records were
    // gone, so replay brings back an orphan `t.jag` that no table names.
    let t = db.execute("SELECT a FROM t").unwrap_err().to_string();
    assert!(t.contains("unknown table 't'"), "{t}");
    assert!(dir.join("t.jag").exists());
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
}
