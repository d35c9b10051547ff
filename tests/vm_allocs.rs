//! Allocation counts around a sandboxed UDF invocation.
//!
//! A timing cannot gate in tier-1; an allocation count can, because it
//! repeats exactly. This binary installs the counting allocator it shares
//! with `scan_allocs.rs` and pins these beside the compiled tier's
//! timing claim:
//!
//! * a batch of generic-UDF invocations allocates per *batch*, not per row:
//!   the argument vector, the arena's byte buffers and the compiled tier's
//!   register stack are reused from row to row (five allocations per row
//!   before they were);
//! * an allowed host call costs the security manager no allocation and no
//!   audit-log entry, however many are made — the log used to grow by one
//!   entry (two `String`s) per call, for as long as the UDF stayed
//!   registered;
//! * verifying an uploaded module holds memory in proportion to the module,
//!   not to its code times its stack depth: the verifier keeps stack types
//!   at block entries only, within `STATE_BUDGET`;
//! * what the executor allocates per row around a call of the generic UDF
//!   at dop 1, batched, per tuple and served from the memo cache: the byte
//!   array the scan decodes, the call's arguments, the output row and (for
//!   a memoized slot) its cache key. The counts are pinned exactly, so an
//!   allocation added per row on either side of the crossing fails here.

use std::sync::Arc;

use jaguar_common::error::JaguarError;
use jaguar_core::{
    ByteArray, Config, Database, PermissionSet, ResourceLimits, ScalarUdf, Tuple, Value,
};
use jaguar_udf::generic::{self, GenericParams, IdentityCallbacks, GENERIC_CALLBACK};
use jaguar_udf::{ValueBatch, VmUdf, Volatility};
use jaguar_vm::{ExecMode, FuncSig, Function, Insn, Module, Permission};

#[path = "counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, peak_live_bytes};

const ROWS: usize = 1_000;

/// The generic UDF under Design 3, compiled from its first call, with or
/// without a security manager on its host calls.
fn generic_vm(permissions: Option<Arc<PermissionSet>>) -> VmUdf {
    VmUdf::new(
        "generic_vm",
        generic::generic_signature(),
        Arc::new(generic::generic_module().verify().unwrap()),
        "main",
        ResourceLimits::default(),
        ExecMode::Jit,
        permissions,
    )
    .unwrap()
}

fn batch_of(params: GenericParams) -> ValueBatch {
    let rows: Vec<Vec<Value>> = (0..ROWS as u64)
        .map(|i| params.args(ByteArray::patterned(100, i)))
        .collect();
    ValueBatch::from_rows(&rows).unwrap()
}

/// Allocations of one `invoke_batch` over `batch`, after one to warm up.
fn batch_allocations(udf: &mut VmUdf, batch: &ValueBatch) -> u64 {
    udf.invoke_batch(batch, &mut IdentityCallbacks).unwrap();
    let (allocs, out) = allocations(|| udf.invoke_batch(batch, &mut IdentityCallbacks));
    assert_eq!(out.unwrap().len(), ROWS);
    allocs
}

#[test]
fn a_batch_of_invocations_allocates_per_batch_not_per_row() {
    let batch = batch_of(GenericParams {
        data_indep_comps: 200,
        data_dep_comps: 2,
        callbacks: 0,
    });
    let allocs = batch_allocations(&mut generic_vm(None), &batch);
    // The result vector, the two argument vectors, the arena's object
    // table, one byte buffer and the register stack — a few growth steps.
    assert!(
        allocs <= ROWS as u64 / 10,
        "{allocs} allocations over {ROWS} rows"
    );
}

#[test]
fn allowed_host_calls_leave_the_audit_log_and_the_allocator_alone() {
    let granted = || {
        Arc::new(
            PermissionSet::deny_all("generic_vm")
                .grant(Permission::HostCall(GENERIC_CALLBACK.into())),
        )
    };
    let batch = batch_of(GenericParams {
        data_indep_comps: 0,
        data_dep_comps: 0,
        callbacks: 100,
    });
    let perms = granted();
    let policed = batch_allocations(&mut generic_vm(Some(Arc::clone(&perms))), &batch);
    let unpoliced = batch_allocations(&mut generic_vm(None), &batch);
    assert_eq!(policed, unpoliced, "the security check allocates");
    assert_eq!(perms.allowed_checks(), 2 * 100 * ROWS as u64);
    assert!(perms.violations().is_empty());

    let perms = granted();
    let (allocs, ()) = allocations(|| {
        for _ in 0..1_000_000 {
            perms.check_host_call(GENERIC_CALLBACK).unwrap();
        }
    });
    assert_eq!(allocs, 0);
    assert_eq!(perms.allowed_checks(), 1_000_000);
    assert!(perms.violations().is_empty());
}

/// The bytes of a module whose `main` pushes 4,000 constants, appends
/// `filler(pc)` 200,000 times at that depth, then pops them and returns.
fn deep_stack_module(filler: impl Fn(usize) -> Vec<Insn>) -> Vec<u8> {
    const DEPTH: usize = 4_000;
    let mut code: Vec<Insn> = (0..DEPTH as i64).map(Insn::ConstI).collect();
    for _ in 0..200_000 {
        code.extend(filler(code.len()));
    }
    code.extend([Insn::Pop; DEPTH]);
    code.push(Insn::Ret);
    let main = Function {
        name: "main".into(),
        sig: FuncSig::new(vec![], None),
        local_types: vec![],
        code,
    };
    Module {
        name: "deep".into(),
        imports: vec![],
        functions: vec![main],
    }
    .to_bytes()
}

#[test]
fn verifying_an_uploaded_module_is_bounded_in_memory() {
    // 440 KB: `dup; pop` at depth 4,000 — one block, one stack.
    let straight = deep_stack_module(|_| vec![Insn::Dup, Insn::Pop]);
    // 1 MB: `jmp next` at depth 4,000 — a block entry per jump.
    let chain = deep_stack_module(|pc| vec![Insn::Jmp(pc as u32 + 1)]);
    for (bytes, verifies) in [(straight, true), (chain, false)] {
        let (peak, verified) =
            peak_live_bytes(|| Module::from_bytes(&bytes).and_then(Module::verify));
        assert!(
            peak < 64 << 20,
            "{peak} bytes live verifying a {}-byte module",
            bytes.len()
        );
        match verified {
            Ok(_) => assert!(verifies, "the jump chain verified"),
            Err(e) => {
                assert!(!verifies, "{e}");
                assert!(matches!(e, JaguarError::Verification(_)), "{e}");
                assert!(e.to_string().contains("state budget"), "{e}");
            }
        }
    }
}

/// A dop-1 database of `2 * ROWS` rows whose byte arrays repeat every 8
/// rows, with the generic UDF under Design 3 declared `volatility` and
/// called `batch` rows per crossing.
fn generic_db(batch: usize, volatility: Volatility) -> Database {
    let db = Database::with_config(Config::default().with_dop(1).with_udf_batch_size(batch));
    db.execute("CREATE TABLE rel (id INT, bytearray BYTEARRAY)")
        .unwrap();
    let t = db.catalog().table("rel").unwrap();
    for i in 0..2 * ROWS as i64 {
        t.insert(Tuple::new(vec![
            Value::Int(i),
            Value::Bytes(ByteArray::patterned(100, i as u64 % 8)),
        ]))
        .unwrap();
    }
    db.register_udf(generic::def_vm(true, ResourceLimits::default()).with_volatility(volatility));
    db
}

/// Allocations per row of the generic UDF's projection: what reading
/// `2 * ROWS` rows costs over reading `ROWS`, each statement run once to
/// warm up (and, for a memoized slot, to fill the cache), divided by
/// `ROWS` and rounded, so a statement's fixed cost and its vectors'
/// growth steps drop out.
fn executor_allocations_per_row(db: &Database) -> u64 {
    let run = |n: usize| {
        let sql = format!("SELECT generic_vm(bytearray, 10, 1, 0) FROM rel WHERE id < {n}");
        let (allocs, rows) = allocations(|| db.execute(&sql).unwrap().rows);
        assert_eq!(rows.len(), n);
        allocs
    };
    run(ROWS);
    run(2 * ROWS);
    let (few, many) = (run(ROWS), run(2 * ROWS));
    (many - few + ROWS as u64 / 2) / ROWS as u64
}

#[test]
fn the_executor_allocates_per_row_around_a_udf_call() {
    // Batched and per tuple alike: the byte array the scan decodes, the
    // argument vector and the output row.
    let batched = executor_allocations_per_row(&generic_db(256, Volatility::Stable));
    assert_eq!(batched, 3, "batched, Stable, 256 rows a crossing");
    let per_tuple = executor_allocations_per_row(&generic_db(1, Volatility::Stable));
    assert_eq!(per_tuple, 3, "per tuple, Stable");
    // Every row a memo hit: three more, for the cache key a 100-byte array
    // grows twice, batched or not: a batched lookup reads the key's values
    // from the batch's columns in place.
    let memo = executor_allocations_per_row(&generic_db(1, Volatility::Immutable));
    assert_eq!(memo, 6, "per tuple, Immutable, every row a memo hit");
    let memo_batched = executor_allocations_per_row(&generic_db(256, Volatility::Immutable));
    assert_eq!(memo_batched, 6, "batched, Immutable, every row a memo hit");
}
