//! Two-tier integration: TCP server, client library, UDF migration in both
//! directions (paper §2.1 and §6.4).

use jaguar_core::{ByteArray, Client, DataType, Database, UdfSignature, Value};

fn server_db() -> Database {
    let db = Database::in_memory();
    db.execute("CREATE TABLE items (id INT, payload BYTEARRAY)")
        .unwrap();
    db.execute("INSERT INTO items VALUES (1, X'0A0B'), (2, X'FF'), (3, X'000102030405')")
        .unwrap();
    db
}

#[test]
fn execute_over_the_wire() {
    let db = server_db();
    let server = db.serve("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.ping().unwrap();

    let r = client
        .execute("SELECT id FROM items WHERE id >= 2")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.schema.field(0).unwrap().name, "id");
    assert_eq!(r.stats.rows_scanned, 3);

    // DML over the wire.
    let r = client
        .execute("INSERT INTO items VALUES (4, NULL)")
        .unwrap();
    assert_eq!(r.affected, 1);
    let r = client.execute("SELECT id FROM items").unwrap();
    assert_eq!(r.rows.len(), 4);
    client.quit().unwrap();
}

#[test]
fn server_errors_are_reported_not_fatal() {
    let db = server_db();
    let server = db.serve("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    assert!(client.execute("SELECT zap FROM items").is_err());
    // Connection still usable after an error.
    assert_eq!(
        client.execute("SELECT id FROM items").unwrap().rows.len(),
        3
    );
}

#[test]
fn multiple_concurrent_clients() {
    let db = server_db();
    let server = db.serve("127.0.0.1:0").unwrap();
    let addr = server.addr();
    let mut handles = Vec::new();
    for _ in 0..6 {
        handles.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).unwrap();
            for _ in 0..20 {
                let r = c.execute("SELECT id FROM items WHERE id = 1").unwrap();
                assert_eq!(r.rows.len(), 1);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn udf_upload_execute_download_roundtrip() {
    let db = server_db();
    let server = db.serve("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let sig = UdfSignature::new(vec![DataType::Bytes], DataType::Int);
    client
        .compile_and_register(
            "firstbyte",
            &sig,
            "fn main(b: bytes) -> i64 { if len(b) == 0 { return -1; } return b[0]; }",
            Some(&[Value::Bytes(ByteArray::new(vec![42]))]),
        )
        .unwrap();

    // Server-side execution.
    let r = client
        .execute("SELECT id, firstbyte(payload) FROM items WHERE firstbyte(payload) > 100")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0].get(0).unwrap(), &Value::Int(2));

    // Client-side execution of the identical bytecode.
    let mut local = client.fetch_udf("firstbyte").unwrap();
    assert_eq!(
        local
            .invoke(&[Value::Bytes(ByteArray::new(vec![7, 8]))])
            .unwrap(),
        Value::Int(7)
    );
    assert_eq!(local.signature().ret, DataType::Int);
}

#[test]
fn malicious_upload_rejected_by_server_side_verification() {
    let db = server_db();
    let server = db.serve("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let sig = UdfSignature::new(vec![], DataType::Int);

    // Hand-craft a module whose bytecode underflows the stack — a hostile
    // client bypassing the compiler. The server's verifier must refuse it.
    let evil = {
        let src = "module evil\nfunc main() -> i64\n  consti 0\n  ret\nend\n";
        let mut m = jaguar_vm::asm::assemble(src).unwrap();
        m.functions[0].code = vec![jaguar_vm::Insn::AddI, jaguar_vm::Insn::Ret];
        m.to_bytes()
    };
    let err = client
        .register_udf("evil", &sig, &evil, "main", false)
        .expect_err("unverifiable bytecode must be rejected");
    assert!(err.to_string().contains("underflow"), "{err}");

    // An import the server does not offer is likewise rejected.
    let module = jaguar_lang::compile(
        "sneaky",
        "import read_secret(i64) -> i64; fn main() -> i64 { return read_secret(0); }",
    )
    .unwrap();
    let err = client
        .register_udf("sneaky", &sig, &module.to_bytes(), "main", false)
        .expect_err("unoffered import must be rejected");
    assert!(err.to_string().contains("does not offer"), "{err}");
}

#[test]
fn fetching_native_udf_is_refused() {
    let db = server_db();
    db.register_udf(jaguar_udf::generic::def_native());
    let server = db.serve("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let err = match client.fetch_udf("generic") {
        Err(e) => e,
        Ok(_) => panic!("native code must not migrate"),
    };
    assert!(err.to_string().contains("cannot migrate"), "{err}");
}

#[test]
fn explain_over_the_wire() {
    let db = server_db();
    let server = db.serve("127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let plan = client.explain("SELECT id FROM items WHERE id < 2").unwrap();
    assert!(plan.contains("SeqScan items [id]"), "{plan}");
}
