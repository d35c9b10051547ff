//! The security story (paper §1 and §6): hostile or buggy UDFs must not
//! crash the server, exhaust its resources, or touch what they were not
//! granted. Each attack below is attempted and contained.
//!
//! ```sh
//! cargo run --example sandbox_security
//! ```

use jaguar_core::{Config, DataType, Database, JaguarError, UdfDesign, UdfSignature};

fn main() -> jaguar_core::Result<()> {
    let db = Database::with_config(Config {
        default_fuel: Some(2_000_000),
        default_vm_memory: Some(8 << 20),
        ..Config::default()
    });
    db.execute("CREATE TABLE t (a INT)")?;
    db.execute("INSERT INTO t VALUES (1), (2), (3)")?;
    let sig = UdfSignature::new(vec![], DataType::Int);

    // Attack 1: denial of service by infinite loop → stopped by fuel.
    db.register_jagscript_udf(
        "spin",
        sig.clone(),
        "fn main() -> i64 { while 1 { } return 0; }",
        UdfDesign::Sandboxed,
    )?;
    report("infinite loop", db.execute("SELECT spin() FROM t"));

    // Attack 2: memory bomb → stopped by the arena budget.
    db.register_jagscript_udf(
        "bomb",
        sig.clone(),
        "fn main() -> i64 {
             let i: i64 = 0;
             while 1 {
                 let waste: bytes = newbytes(1048576);
                 i = i + waste[0];
             }
             return i;
         }",
        UdfDesign::Sandboxed,
    )?;
    report("memory bomb", db.execute("SELECT bomb() FROM t"));

    // Attack 3: wild reads → stopped by bounds checks (Figure 7's cost,
    // §1's payoff: "this is a reasonable price to pay for security").
    db.register_jagscript_udf(
        "wild",
        sig.clone(),
        "fn main() -> i64 { let b: bytes = newbytes(4); return b[123456789]; }",
        UdfDesign::Sandboxed,
    )?;
    report("out-of-bounds read", db.execute("SELECT wild() FROM t"));

    // Attack 4: calling host functionality that was never granted →
    // rejected at *registration* (class-loader-style import gating).
    let denied = db.register_jagscript_udf(
        "exfiltrate",
        sig.clone(),
        "import read_secret_file(i64) -> i64;
         fn main() -> i64 { return read_secret_file(0); }",
        UdfDesign::Sandboxed,
    );
    match denied {
        Err(JaguarError::SecurityViolation(msg)) => {
            println!("unauthorized import    → rejected at load: {msg}")
        }
        other => println!("unauthorized import    → UNEXPECTED: {other:?}"),
    }

    // Attack 5: crash the process (Design 2's containment). The "crash"
    // UDF is native code in the worker binary that calls abort(); the
    // worker dies, the server does not.
    db.register_udf(jaguar_core::UdfDef::new(
        "crashy",
        sig.clone(),
        jaguar_core::UdfImpl::registered("crash", jaguar_core::Placement::Worker),
    ));
    match db.execute("SELECT crashy() FROM t") {
        Err(e) => println!("worker process abort   → contained: {e}"),
        Ok(_) => println!("worker process abort   → UNEXPECTED success"),
    }

    // After every attack, the server still works.
    let survivors = db.execute("SELECT a FROM t WHERE a >= 1")?;
    println!(
        "\nserver survived all attacks; control query returned {} rows",
        survivors.rows.len()
    );
    Ok(())
}

fn report(what: &str, outcome: jaguar_core::Result<jaguar_core::QueryResult>) {
    match outcome {
        Err(e) => println!("{what:22} → contained: {e}"),
        Ok(_) => println!("{what:22} → UNEXPECTED success"),
    }
}
