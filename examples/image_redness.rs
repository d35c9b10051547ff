//! The paper's §3.1 example — `REDNESS(I)`, the fraction of red pixels in
//! an image — run under three execution designs, with wall-clock timing:
//!
//! * Design 1 (`C++`)  — trusted native Rust in the server process,
//! * Design 2 (`IC++`) — native code in an isolated worker process,
//! * Design 3 (`JSM`)  — sandboxed bytecode in the server process.
//!
//! ```sql
//! SELECT * FROM Sunsets S WHERE REDNESS(S.picture) > 70 AND S.location = 'fingerlakes'
//! ```
//!
//! Run with `--release` to see the designs' relative costs clearly. The
//! isolated design needs the worker binary: `cargo build -p jaguar-udf`
//! first (the example skips it otherwise).

use std::time::Instant;

use jaguar_core::{
    ByteArray, DataType, Database, Tuple, UdfDef, UdfDesign, UdfImpl, UdfSignature, Value,
};

/// A fake image: a byte per pixel, "red" = value above 200.
fn picture(seed: u64, red_fraction: f64, pixels: usize) -> ByteArray {
    let mut state = seed | 1;
    let mut out = Vec::with_capacity(pixels);
    for _ in 0..pixels {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let roll = (state % 1000) as f64 / 1000.0;
        out.push(if roll < red_fraction { 230 } else { 40 });
    }
    ByteArray::new(out)
}

const REDNESS_JAGSCRIPT: &str = r#"
    fn main(picture: bytes) -> i64 {
        let red: i64 = 0;
        let i: i64 = 0;
        let n: i64 = len(picture);
        if n == 0 { return 0; }
        while i < n {
            if picture[i] > 200 { red = red + 1; }
            i = i + 1;
        }
        return (red * 100) / n;
    }
"#;

fn redness_native(
    args: &[Value],
    _cb: &mut dyn jaguar_core::CallbackHandler,
) -> jaguar_core::Result<Value> {
    let pic = args[0].as_bytes()?;
    if pic.is_empty() {
        return Ok(Value::Int(0));
    }
    let red = pic.as_slice().iter().filter(|&&p| p > 200).count() as i64;
    Ok(Value::Int(red * 100 / pic.len() as i64))
}

fn setup() -> jaguar_core::Result<Database> {
    let db = Database::in_memory();
    db.execute("CREATE TABLE sunsets (id INT, location VARCHAR, picture BYTEARRAY)")?;
    let table = db.catalog().table("sunsets")?;
    let locations = ["fingerlakes", "adirondacks", "catskills"];
    for i in 0..300i64 {
        let red = if i % 3 == 0 { 0.8 } else { 0.2 };
        table.insert(Tuple::new(vec![
            Value::Int(i),
            Value::Str(locations[(i % 3) as usize].to_string()),
            Value::Bytes(picture(i as u64, red, 4096)),
        ]))?;
    }
    Ok(db)
}

fn main() -> jaguar_core::Result<()> {
    let db = setup()?;
    let sig = UdfSignature::new(vec![DataType::Bytes], DataType::Int);
    let query = "SELECT id FROM sunsets S \
                 WHERE REDNESS(S.picture) > 70 AND S.location = 'fingerlakes'";

    // Design 1: trusted native.
    db.register_udf(UdfDef::new(
        "redness",
        sig.clone(),
        UdfImpl::closure(redness_native),
    ));
    let t = Instant::now();
    let native = db.execute(query)?;
    println!(
        "C++  (Design 1, trusted native):   {:4} matches in {:>9.3?}",
        native.rows.len(),
        t.elapsed()
    );

    // Design 3: sandboxed bytecode.
    db.register_jagscript_udf(
        "redness",
        sig.clone(),
        REDNESS_JAGSCRIPT,
        UdfDesign::Sandboxed,
    )?;
    let t = Instant::now();
    let sandboxed = db.execute(query)?;
    println!(
        "JSM  (Design 3, sandboxed VM):     {:4} matches in {:>9.3?}",
        sandboxed.rows.len(),
        t.elapsed()
    );
    assert_eq!(native.rows, sandboxed.rows, "designs must agree");

    // Design 2: isolated process, if the worker binary is available.
    // (The worker registry ships a generic byte-summing UDF set; REDNESS
    // itself is not baked into the worker, so reuse the VM module under
    // Design 4 instead — bytecode travels, native code does not. That
    // asymmetry is itself a finding of the paper.)
    match db.register_jagscript_udf(
        "redness",
        sig.clone(),
        REDNESS_JAGSCRIPT,
        UdfDesign::SandboxedIsolated,
    ) {
        Ok(()) => match db.execute(query) {
            Ok(isolated) => {
                let t = Instant::now();
                let isolated2 = db.execute(query)?;
                assert_eq!(isolated.rows, isolated2.rows);
                println!(
                    "IJSM (Design 4, isolated VM):      {:4} matches in {:>9.3?}",
                    isolated2.rows.len(),
                    t.elapsed()
                );
            }
            Err(e) => println!("IJSM (Design 4) skipped: {e}"),
        },
        Err(e) => println!("IJSM (Design 4) skipped: {e}"),
    }

    println!(
        "\nplan under the last registration:\n{}",
        db.explain(query)?
    );
    Ok(())
}
