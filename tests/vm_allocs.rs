//! Allocation counts around a sandboxed UDF invocation.
//!
//! A timing cannot gate in tier-1; an allocation count can, because it
//! repeats exactly. This binary installs the counting allocator it shares
//! with `scan_allocs.rs` and pins two things beside the compiled tier's
//! timing claim:
//!
//! * a batch of generic-UDF invocations allocates per *batch*, not per row:
//!   the argument vector, the arena's byte buffers and the compiled tier's
//!   register stack are reused from row to row (five allocations per row
//!   before they were);
//! * an allowed host call costs the security manager no allocation and no
//!   audit-log entry, however many are made — the log used to grow by one
//!   entry (two `String`s) per call, for as long as the UDF stayed
//!   registered.

use std::sync::Arc;

use jaguar_core::{ByteArray, PermissionSet, ResourceLimits, ScalarUdf, Value};
use jaguar_udf::generic::{self, GenericParams, IdentityCallbacks, GENERIC_CALLBACK};
use jaguar_udf::{ValueBatch, VmUdf};
use jaguar_vm::{ExecMode, Permission};

#[path = "counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

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
        Some(0),
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
