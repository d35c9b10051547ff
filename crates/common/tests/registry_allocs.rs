//! What a metrics-registry lookup allocates.
//!
//! The executor resolves its per-UDF metric handles by name once per UDF
//! per statement, and the planner one more per in-engine slot. A lookup
//! that finds its metric must allocate nothing: only the first one, which
//! creates the metric, copies the name into the registry.

use jaguar_common::obs::Registry;

#[path = "../../../tests/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

#[test]
fn a_repeated_lookup_allocates_nothing() {
    let r = Registry::new();
    let (created, _) = allocations(|| {
        (
            r.counter("udf.invocations.jsm"),
            r.gauge("pool.idle"),
            r.histogram("udf.latency_us.jsm"),
        )
    });
    assert!(created > 0, "creating a metric stores its name");
    let (allocs, ()) = allocations(|| {
        for _ in 0..1_000 {
            r.counter("udf.invocations.jsm").inc();
            r.gauge("pool.idle").add(1);
            r.histogram("udf.latency_us.jsm").observe_us(3);
        }
    });
    assert_eq!(allocs, 0, "{allocs} allocations over 3,000 hits");
    let snap = r.snapshot();
    assert_eq!(snap.counter("udf.invocations.jsm"), 1_000);
    assert_eq!(snap.gauge("pool.idle"), 1_000);
    assert_eq!(snap.histogram("udf.latency_us.jsm").unwrap().count, 1_000);
}
