//! Security integration tests — the paper's threat model (§1): UDFs "that
//! might crash the database system, that modify its files or memory
//! directly, circumventing the authorization mechanisms, or that
//! monopolize CPU, memory or disk resources leading to a reduction in
//! DBMS performance (i.e. denial of service)".

use jaguar_core::{
    Config, DataType, Database, JaguarError, Permission, PermissionSet, Placement, UdfDesign,
    UdfSignature,
};

fn db_with_row() -> Database {
    let db = Database::with_config(Config {
        default_fuel: Some(500_000),
        default_vm_memory: Some(4 << 20),
        ..Config::default()
    });
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db
}

#[test]
fn cpu_denial_of_service_contained() {
    let db = db_with_row();
    db.register_jagscript_udf(
        "spin",
        UdfSignature::new(vec![], DataType::Int),
        "fn main() -> i64 { let x: i64 = 0; while 1 { x = x + 1; } return x; }",
        UdfDesign::Sandboxed,
    )
    .unwrap();
    let e = db.execute("SELECT spin() FROM t").unwrap_err();
    assert!(matches!(e, JaguarError::ResourceLimit(_)), "{e}");
    assert!(db.execute("SELECT a FROM t").is_ok(), "server must survive");
}

#[test]
fn memory_denial_of_service_contained() {
    let db = db_with_row();
    db.register_jagscript_udf(
        "hog",
        UdfSignature::new(vec![], DataType::Int),
        "fn main() -> i64 {
            let total: i64 = 0;
            while 1 {
                let chunk: bytes = newbytes(1048576);
                total = total + len(chunk);
            }
            return total;
        }",
        UdfDesign::Sandboxed,
    )
    .unwrap();
    let e = db.execute("SELECT hog() FROM t").unwrap_err();
    assert!(matches!(e, JaguarError::ResourceLimit(_)), "{e}");
    assert!(db.execute("SELECT a FROM t").is_ok());
}

#[test]
fn runaway_recursion_contained() {
    let db = db_with_row();
    db.register_jagscript_udf(
        "rec",
        UdfSignature::new(vec![], DataType::Int),
        "fn f(n: i64) -> i64 { return f(n + 1); }
         fn main() -> i64 { return f(0); }",
        UdfDesign::Sandboxed,
    )
    .unwrap();
    let e = db.execute("SELECT rec() FROM t").unwrap_err();
    assert!(matches!(e, JaguarError::ResourceLimit(_)), "{e}");
}

#[test]
fn memory_safety_bounds_checked() {
    let db = db_with_row();
    db.register_jagscript_udf(
        "oob",
        UdfSignature::new(vec![], DataType::Int),
        "fn main() -> i64 { let b: bytes = newbytes(2); return b[5]; }",
        UdfDesign::Sandboxed,
    )
    .unwrap();
    let e = db.execute("SELECT oob() FROM t").unwrap_err();
    assert!(matches!(e, JaguarError::VmTrap(_)), "{e}");
    assert!(e.is_containable());
}

#[test]
fn unauthorized_import_rejected_at_registration() {
    let db = db_with_row();
    let e = db
        .register_jagscript_udf(
            "steal",
            UdfSignature::new(vec![], DataType::Int),
            "import open_file(i64) -> i64; fn main() -> i64 { return open_file(0); }",
            UdfDesign::Sandboxed,
        )
        .unwrap_err();
    assert!(matches!(e, JaguarError::SecurityViolation(_)), "{e}");
}

#[test]
fn worker_crash_contained_and_audited() {
    if jaguar_ipc::find_worker_binary().is_err() {
        eprintln!("skipping: jaguar-worker not built");
        return;
    }
    let db = db_with_row();
    db.register_udf(jaguar_core::UdfDef::new(
        "crashy",
        UdfSignature::new(vec![], DataType::Int),
        jaguar_core::UdfImpl::registered("crash", Placement::Worker),
    ));
    let e = db.execute("SELECT crashy() FROM t").unwrap_err();
    assert!(matches!(e, JaguarError::Worker(_)), "{e}");
    assert!(db.execute("SELECT a FROM t").is_ok(), "server must survive");
}

/// A VM UDF runs under its permission set wherever it runs. The generic
/// UDF making one callback, under a spec registered through the library
/// API that grants nothing, is refused in process (Design 3) and in a
/// worker (Design 4), per tuple and batched, with one error.
#[test]
fn a_deny_all_spec_is_enforced_in_process_and_in_a_worker() {
    use jaguar_core::{ByteArray, ResourceLimits, UdfDef, UdfImpl, ValueBatch};
    use jaguar_udf::generic::{
        generic_module, generic_signature, GenericParams, IdentityCallbacks,
    };
    let deny = std::sync::Arc::new(PermissionSet::deny_all("g"));
    let limits = ResourceLimits::default();
    let spec = jaguar_udf::def::vm_spec(generic_module(), "main", limits, true, Some(deny.clone()))
        .unwrap();
    let mut designs = vec![UdfImpl::bytecode(spec.clone(), Placement::Server)];
    if jaguar_ipc::find_worker_binary().is_ok() {
        designs.push(UdfImpl::bytecode(spec, Placement::Worker));
    }
    let one_callback = GenericParams {
        callbacks: 1,
        ..GenericParams::default()
    };
    let args = one_callback.args(ByteArray::zeroed(4));
    let batch = ValueBatch::from_rows(&vec![args.clone(); 3]).unwrap();
    let denied = || JaguarError::SecurityViolation("udf 'g' denied: hostcall(cb)".into());
    let runs = designs.len();
    for imp in designs {
        let label = imp.design().label();
        let mut udf = UdfDef::new("g", generic_signature(), imp)
            .instantiate()
            .unwrap();
        let e = udf.invoke(&args, &mut IdentityCallbacks).unwrap_err();
        assert_eq!(e, denied(), "{label}");
        let e = udf
            .invoke_batch(&batch, &mut IdentityCallbacks)
            .unwrap_err();
        assert_eq!((e.row, e.error), (0, denied()), "{label}");
        udf.finish().unwrap();
    }
    // Each design's two denials are audited in the spec's set: Design 3's
    // where it denied them, Design 4's by the parent from the rows the
    // worker's copy denied. With the worker built, that is 4.
    assert_eq!(deny.violations().len(), 2 * runs);
    assert!(deny.violations().iter().all(|v| v.action == "hostcall(cb)"));
}

#[test]
fn permission_sets_enforce_least_privilege_with_audit_trail() {
    // Unit-style check at the permission layer: grants are exact, denials
    // are recorded and attributable (§6.1's missing-audit complaint).
    let perms = PermissionSet::deny_all("suspect")
        .grant(Permission::HostCall("cb".into()))
        .grant(Permission::FileRead("/data/public/".into()));

    perms.check(&Permission::HostCall("cb".into())).unwrap();
    perms
        .check(&Permission::FileRead("/data/public/img.png".into()))
        .unwrap();
    assert!(perms
        .check(&Permission::HostCall("drop_tables".into()))
        .is_err());
    assert!(perms
        .check(&Permission::FileRead("/etc/shadow".into()))
        .is_err());
    assert!(perms
        .check(&Permission::FileWrite("/data/public/x".into()))
        .is_err());

    let violations = perms.violations();
    assert_eq!(violations.len(), 3);
    assert!(violations.iter().all(|v| v.principal == "suspect"));
}

#[test]
fn fuel_disabled_config_reproduces_1998_vulnerability() {
    // With no resource limits (the 1998 JVM situation), the same hostile
    // UDF would spin forever — prove the knob works by giving it finite
    // but large fuel and observing consumption scale.
    let db = Database::with_config(Config {
        default_fuel: Some(2_000_000),
        ..Config::default()
    });
    db.execute("CREATE TABLE t (a INT)").unwrap();
    db.execute("INSERT INTO t VALUES (1)").unwrap();
    db.register_jagscript_udf(
        "burn",
        UdfSignature::new(vec![DataType::Int], DataType::Int),
        "fn main(n: i64) -> i64 {
            let acc: i64 = 0;
            let i: i64 = 0;
            while i < n { acc = acc + i; i = i + 1; }
            return acc;
        }",
        UdfDesign::Sandboxed,
    )
    .unwrap();
    // Small n: fine. n requiring more than the budget: contained.
    assert!(db.execute("SELECT burn(1000) FROM t").is_ok());
    let e = db.execute("SELECT burn(10000000) FROM t").unwrap_err();
    assert!(matches!(e, JaguarError::ResourceLimit(_)), "{e}");
}
