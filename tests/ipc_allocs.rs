//! Allocation counts around an isolated (Design 4) batch crossing.
//!
//! A timing cannot gate in tier-1; an allocation count can, because it
//! repeats exactly. This binary installs the counting allocator it shares
//! with `vm_allocs.rs` and pins that a batch of generic-UDF invocations
//! allocates per *batch*, not per row, on both sides of the socket:
//!
//! * the parent writes the batch frame straight from the `ValueBatch`
//!   columns, without copying any row out of them;
//! * the worker reads the frame whole into buffers it keeps from batch to
//!   batch, reads every argument where it lies there, and runs every row
//!   in the arena and argument vector of its load;
//! * a callback the worker proxies is written from the UDF's own name and
//!   arguments, and its answer is read into a second frame the worker
//!   keeps, as the batch's frame still holds the rows that are running.

use std::io::Cursor;
use std::sync::Arc;

use jaguar_common::polled::{Outbox, Polled};
use jaguar_core::{ByteArray, ResourceLimits, Value};
use jaguar_ipc::find_worker_binary;
use jaguar_ipc::proto::{write_batch, Request, Response};
use jaguar_udf::generic::{self, GenericParams, IdentityCallbacks};
use jaguar_udf::{worker, ValueBatch};

#[path = "counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::allocations;

const ROWS: usize = 1_000;

/// `ROWS` rows of the generic UDF doing no work: a 100-byte array and
/// three zero INTs, an INT result.
fn rows() -> Vec<Vec<Value>> {
    (0..ROWS as u64)
        .map(|i| GenericParams::default().args(ByteArray::patterned(100, i)))
        .collect()
}

#[test]
fn an_isolated_batch_allocates_per_batch_in_the_parent() {
    if find_worker_binary().is_err() {
        eprintln!("skipping: jaguar-worker not built (cargo build --workspace)");
        return;
    }
    let batch = ValueBatch::from_rows(&rows()).unwrap();
    let mut udf = generic::def_isolated_vm(true, ResourceLimits::default())
        .instantiate()
        .unwrap();
    udf.invoke_batch(&batch, &mut IdentityCallbacks).unwrap();
    let (allocs, out) = allocations(|| udf.invoke_batch(&batch, &mut IdentityCallbacks));
    assert_eq!(out.unwrap(), vec![Value::Int(0); ROWS]);
    udf.finish().unwrap();
    // The reply vector — not one allocation per row.
    assert!(
        allocs <= ROWS as u64 / 10,
        "{allocs} allocations over {ROWS} rows"
    );
}

#[test]
fn an_isolated_batch_allocates_per_batch_in_the_worker() {
    let rows = rows();
    let mut load = Vec::new();
    let unlimited = ResourceLimits {
        fuel: None,
        memory: None,
        max_call_depth: 256,
    };
    let definition = generic::def_isolated_vm(true, unlimited)
        .load_body()
        .unwrap();
    let mut out = Outbox::new(&mut load);
    out.send(|f| Request::Load { definition }.write(f)).unwrap();
    let mut frame = Vec::new();
    let mut out = Outbox::new(&mut frame);
    out.send(|f| write_batch(f, ROWS, 4, |i, a| &rows[i][a]))
        .unwrap();
    let registry = generic::worker_registry();

    // Allocations of a worker serving one load and then `batches` batches,
    // with its input and output buffers made beforehand.
    let serve = |batches: usize| {
        let input = [load.clone(), frame.repeat(batches)].concat();
        let mut output = Vec::with_capacity(64 + batches * 16 * ROWS);
        let (allocs, served) =
            allocations(|| worker::serve(Cursor::new(input), &mut output, &registry));
        served.unwrap();
        let mut replies = Polled::new(Cursor::new(output), Arc::default());
        for _ in 0..2 {
            replies.read(|r| Response::read(r, 0)).unwrap(); // Ready, Loaded
        }
        for _ in 0..batches {
            let reply = replies.read(|r| Response::read(r, ROWS)).unwrap();
            let want = Response::BatchReply {
                values: vec![Value::Int(0); ROWS],
                error: None,
            };
            assert_eq!(reply, want);
        }
        allocs
    };
    serve(1); // warm-up: the process-wide counters and fault sites
    let (few, more) = (serve(2), serve(6));
    let per_batch = more.saturating_sub(few) / 4;
    // The reply vector — not one allocation per row or per argument.
    assert!(
        per_batch <= ROWS as u64 / 10,
        "{per_batch} allocations per batch of {ROWS} rows ({few} for 2 batches, {more} for 6)"
    );
}

#[test]
fn a_proxied_callback_allocates_no_frame_in_the_worker() {
    // Every row makes one callback, which the worker proxies to the parent
    // and whose answer it reads before the row completes.
    let params = GenericParams {
        callbacks: 1,
        ..GenericParams::default()
    };
    let rows: Vec<Vec<Value>> = (0..ROWS as u64)
        .map(|i| params.args(ByteArray::patterned(100, i)))
        .collect();
    let definition = generic::def_isolated().load_body().unwrap();
    let mut load = Vec::new();
    Outbox::new(&mut load)
        .send(|f| Request::Load { definition }.write(f))
        .unwrap();
    let mut batch = Vec::new();
    let mut out = Outbox::new(&mut batch);
    out.send(|f| write_batch(f, ROWS, 4, |i, a| &rows[i][a]))
        .unwrap();
    let answer = Request::CallbackResult {
        result: Ok(Value::Int(0)),
    };
    for _ in 0..ROWS {
        out.send(|f| answer.write(f)).unwrap();
    }
    let registry = generic::worker_registry();

    // Allocations of a worker serving one load and then `batches` batches.
    let serve = |batches: usize| {
        let input = [load.clone(), batch.repeat(batches)].concat();
        let mut output = Vec::with_capacity(64 + batches * 32 * ROWS);
        let (allocs, served) =
            allocations(|| worker::serve(Cursor::new(input), &mut output, &registry));
        served.unwrap();
        let mut replies = Polled::new(Cursor::new(output), Arc::default());
        for _ in 0..2 {
            replies.read(|r| Response::read(r, 0)).unwrap(); // Ready, Loaded
        }
        for _ in 0..batches {
            for _ in 0..ROWS {
                let request = replies.read(|r| Response::read(r, 0)).unwrap();
                assert!(matches!(request, Response::CallbackRequest { .. }));
            }
            let reply = replies.read(|r| Response::read(r, ROWS)).unwrap();
            let want = Response::BatchReply {
                values: vec![Value::Int(0); ROWS],
                error: None,
            };
            assert_eq!(reply, want);
        }
        allocs
    };
    serve(1); // warm-up
    let (few, more) = (serve(2), serve(6));
    let per_callback = more.saturating_sub(few) as f64 / (4 * ROWS) as f64;
    // The row's byte argument, which a native body takes as a `Value` —
    // not a frame per answer, nor a copy of the callback's name or args.
    assert!(
        per_callback < 1.5,
        "{per_callback} allocations per callback ({few} for 2 batches, {more} for 6)"
    );
}
