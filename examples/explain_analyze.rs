//! Observability tour: `EXPLAIN ANALYZE` a UDF query, then dump the
//! process-wide metrics registry — a live version of the paper's Table 1.
//!
//! ```sh
//! cargo run --example explain_analyze
//! ```

use jaguar_core::{DataType, Database, UdfDesign, UdfSignature};

fn main() -> jaguar_core::Result<()> {
    let db = Database::in_memory();

    db.execute("CREATE TABLE readings (id INT, trace BYTEARRAY)")?;
    for i in 0..1000 {
        db.execute(&format!(
            "INSERT INTO readings VALUES ({i}, X'{:02X}{:02X}')",
            i % 256,
            (i * 7) % 256
        ))?;
    }

    // A sandboxed (Design 3) UDF: the paper's expensive predicate.
    db.register_jagscript_udf(
        "trace_sum",
        UdfSignature::new(vec![DataType::Bytes], DataType::Int),
        r#"
            fn main(trace: bytes) -> i64 {
                let sum: i64 = 0;
                let i: i64 = 0;
                while i < len(trace) { sum = sum + trace[i]; i = i + 1; }
                return sum;
            }
        "#,
        UdfDesign::Sandboxed,
    )?;

    let sql = "SELECT id, trace_sum(trace) FROM readings \
               WHERE trace_sum(trace) > 300 ORDER BY id LIMIT 5";

    println!("=== EXPLAIN ANALYZE {sql}\n");
    println!("{}\n", db.explain(&format!("EXPLAIN ANALYZE {sql}"))?);

    println!("=== Database::metrics() snapshot\n");
    let m = db.metrics();
    print!("{m}");

    // The counters EXPLAIN ANALYZE's per-operator view summarises.
    assert!(m.counter("udf.invocations.jsm") > 0);
    assert!(m.counter("sql.queries") > 0);
    Ok(())
}
