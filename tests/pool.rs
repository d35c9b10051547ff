//! Integration tests for the warm worker pool: reuse across queries,
//! timeout-kill-respawn of hung workers, and crash containment with
//! recovery — the properties the per-query-spawn model of the paper never
//! needed, but a long-lived pooled server does.

use std::time::Duration;

use jaguar_core::{
    Config, DataType, Database, JaguarError, Placement, UdfDef, UdfImpl, UdfSignature, Value,
};
use jaguar_ipc::find_worker_binary;

fn worker_available() -> bool {
    if find_worker_binary().is_err() {
        eprintln!("skipping pool tests: jaguar-worker not built (cargo build --workspace)");
        false
    } else {
        true
    }
}

/// A database with pooled executors, a tiny table, and an isolated-native
/// UDF bound to `worker_fn` from the worker binary's registry.
fn pooled_db(config: Config, udf: &str, worker_fn: &str, params: Vec<DataType>) -> Database {
    let db = Database::with_config(config);
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1), (2), (3)").unwrap();
    db.register_udf(UdfDef::new(
        udf,
        UdfSignature::new(params, DataType::Int),
        UdfImpl::registered(worker_fn, Placement::Worker),
    ));
    db
}

#[test]
fn pooled_workers_are_reused_across_queries() {
    if !worker_available() {
        return;
    }
    let db = pooled_db(
        Config::default().with_pooled_executors(2),
        "wnoop",
        "noop",
        vec![DataType::Int],
    );
    let pool = db.worker_pool().expect("pool attached when configured");
    assert!(pool.wait_ready(Duration::from_secs(10)), "pool warms up");

    for _ in 0..4 {
        let r = db.execute("SELECT wnoop(a) FROM t").unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(0));
    }

    let stats = db.pool_stats().expect("stats for attached pool");
    assert_eq!(
        stats.spawns, 2,
        "four queries over a two-worker pool must not spawn beyond pool size: {stats}"
    );
    assert!(
        stats.reuses >= 2,
        "later queries must ride warm workers: {stats}"
    );
    assert_eq!(stats.crashes, 0, "{stats}");
}

#[test]
fn unpooled_config_attaches_no_pool() {
    let db = Database::with_config(Config::default());
    assert!(db.worker_pool().is_none());
    assert!(db.pool_stats().is_none());
}

#[test]
fn hung_worker_is_killed_and_replaced() {
    if !worker_available() {
        return;
    }
    let db = pooled_db(
        Config::default()
            .with_pooled_executors(1)
            .with_pool_invoke_timeout_ms(Some(200)),
        "whang",
        "hang",
        vec![],
    );
    let pool = db.worker_pool().expect("pool attached");
    assert!(pool.wait_ready(Duration::from_secs(10)));

    let err = db.execute("SELECT whang() FROM t").unwrap_err();
    assert!(
        matches!(err, JaguarError::ResourceLimit(_)),
        "deadline expiry must surface as a resource-limit error, got: {err}"
    );

    let stats = db.pool_stats().unwrap();
    assert!(stats.timeouts >= 1, "{stats}");

    // The next checkout replaces the killed worker; the next query succeeds.
    db.register_udf(UdfDef::new(
        "wnoop",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        UdfImpl::registered("noop", Placement::Worker),
    ));
    let r = db.execute("SELECT wnoop(a) FROM t").unwrap();
    assert_eq!(r.rows.len(), 3);
    let stats = db.pool_stats().unwrap();
    assert!(
        stats.spawns >= 2,
        "the hung worker must have been respawned: {stats}"
    );
}

#[test]
fn crashed_worker_is_contained_and_pool_recovers() {
    if !worker_available() {
        return;
    }
    let db = pooled_db(
        Config::default().with_pooled_executors(1),
        "wcrash",
        "crash",
        vec![],
    );
    let pool = db.worker_pool().expect("pool attached");
    assert!(pool.wait_ready(Duration::from_secs(10)));

    // The UDF aborts its worker mid-query: the query gets a clean,
    // containable error and the server survives.
    let err = db.execute("SELECT wcrash() FROM t").unwrap_err();
    assert!(
        matches!(err, JaguarError::Worker(_)),
        "worker death must surface as a worker error, got: {err}"
    );
    assert!(err.is_containable(), "{err}");

    let stats = db.pool_stats().unwrap();
    assert!(stats.crashes >= 1, "{stats}");

    // Recovery: the next checkout respawns and the next query succeeds.
    db.register_udf(UdfDef::new(
        "wnoop",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        UdfImpl::registered("noop", Placement::Worker),
    ));
    let r = db.execute("SELECT wnoop(a) FROM t").unwrap();
    assert_eq!(r.rows.len(), 3);
    let stats = db.pool_stats().unwrap();
    assert!(stats.spawns >= 2, "crashed worker respawned: {stats}");
}

#[test]
fn saturated_pool_times_out_checkout_and_recovers() {
    if !worker_available() {
        return;
    }
    let db = pooled_db(
        Config::default()
            .with_pooled_executors(1)
            .with_pool_invoke_timeout_ms(Some(2_000))
            .with_pool_checkout_timeout_ms(150),
        "whang",
        "hang",
        vec![],
    );
    db.register_udf(UdfDef::new(
        "wnoop",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        UdfImpl::registered("noop", Placement::Worker),
    ));
    let pool = db.worker_pool().expect("pool attached");
    assert!(pool.wait_ready(Duration::from_secs(10)));

    // Occupy the pool's only worker with a hung invoke (killed by the
    // 2s invoke deadline eventually).
    std::thread::scope(|s| {
        let hog = s.spawn(|| db.execute("SELECT whang() FROM t"));
        // Nothing but the hog takes a worker out of the idle set.
        let waiting = std::time::Instant::now();
        while pool.idle_count() != 0 {
            assert!(
                waiting.elapsed() < Duration::from_secs(10),
                "hog never checked out"
            );
            std::thread::yield_now();
        }

        // A second query now queues for a worker and must give up after
        // the 150ms checkout timeout — cleanly, with the wait counted.
        let start = std::time::Instant::now();
        let err = db.execute("SELECT wnoop(a) FROM t").unwrap_err();
        let elapsed = start.elapsed();
        assert!(
            matches!(err, JaguarError::Worker(_) | JaguarError::ResourceLimit(_)),
            "checkout starvation must surface as a clean error, got: {err}"
        );
        assert!(
            elapsed < Duration::from_secs(1),
            "checkout timeout must fire at ~150ms, took {elapsed:?}"
        );
        let stats = db.pool_stats().unwrap();
        assert!(stats.queue_waits >= 1, "{stats}");

        // The hog is eventually killed by the invoke deadline.
        assert!(hog.join().unwrap().is_err(), "hung invoke must error");
    });

    // The pool recovers: the same query that starved now succeeds.
    let r = db.execute("SELECT wnoop(a) FROM t").unwrap();
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn pool_survives_mixed_success_and_crash_sequence() {
    if !worker_available() {
        return;
    }
    let db = pooled_db(
        Config::default().with_pooled_executors(2),
        "wcrash",
        "crash",
        vec![],
    );
    db.register_udf(UdfDef::new(
        "wnoop",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        UdfImpl::registered("noop", Placement::Worker),
    ));
    let pool = db.worker_pool().expect("pool attached");
    assert!(pool.wait_ready(Duration::from_secs(10)));

    for round in 0..3 {
        assert!(
            db.execute("SELECT wcrash() FROM t").is_err(),
            "round {round}"
        );
        let r = db.execute("SELECT wnoop(a) FROM t").unwrap();
        assert_eq!(r.rows.len(), 3, "round {round}");
    }
    let stats = db.pool_stats().unwrap();
    assert!(stats.crashes >= 3, "{stats}");
}
