//! Post-bind optimization passes: planner-side UDF optimizations.
//!
//! Batching and the compiled VM tier attack the *per-crossing* and
//! per-instruction cost of extension code. These passes attack the calls
//! themselves. The volatility contract gates everything: only `Immutable`
//! UDFs are memoized or run in-engine, and `Volatile` UDFs are pinned to
//! their written position.
//!
//! Three passes run between `bind_select` and execution, in this order:
//!
//! 1. **In-engine slots** — an `Immutable` JagScript UDF whose function is
//!    straight-line (no back-edge, no call, no host callback) runs
//!    in-engine: a Design-3 instance on the compiled tier, whatever design
//!    it was registered under. It never checks out a worker, crosses no
//!    boundary and counts no invocation; EXPLAIN tags it `[inlined]`. A
//!    body with a loop or a call stays on the call path, noted in the plan.
//! 2. **Cost-based predicate reordering** — conjuncts are re-ranked by
//!    `cost / (1 - selectivity)` where cost comes from per-UDF observed
//!    latency histograms (static per-design priors before warm-up) and
//!    selectivity from online pass/fail tallies. UDF-free predicates
//!    always run before sandbox crossings; `Volatile` UDFs pin their
//!    written position and fence reordering around it (the segment
//!    structure is established at bind time and respected here).
//! 3. **Memoization marking** — `Immutable` UDFs that do not run in-engine
//!    are flagged for the arg-hash result cache consulted by the
//!    executor ([`crate::memo::MemoCache`], byte-budgeted by
//!    `Config::udf_memo_bytes`).
//!
//! Every pass is equivalence-preserving: rows, error text, and error
//! order are byte-identical to the unoptimized plan across all four
//! trust designs, serial and parallel, batched and per-tuple.

use std::sync::Arc;

use jaguar_common::obs;
use jaguar_udf::Design;

use crate::engine::Engine;
use crate::exec::ExecCtx;
use crate::plan::{describe, expr_has_pinned_udf, expr_udfs, BoundScan, BoundSelect, PlannedUdf};

/// Run all optimization passes over a bound SELECT. Mutates the plan in
/// place; decision notes accumulate in its scan's `notes` for EXPLAIN's
/// `-- plan notes:` trailer.
pub(crate) fn optimize_select(plan: &mut BoundSelect, opt: &Arc<crate::cost::OptState>) {
    let scan = &mut plan.scan;
    let notes = inline_pass(&mut scan.udfs);
    scan.notes.extend(notes);
    reorder_pass(scan, opt);
    memo_notes(scan, opt);
    batch_note(plan);
}

/// Mark the in-engine slots of a statement — a SELECT's or a DML's — and
/// return the plan notes. Only `Immutable` UDFs are candidates: an
/// in-engine slot elides the backend, which a `Stable`/`Volatile`
/// declaration is entitled to notice (connection state reads, side
/// effects, invocation counts); see [`jaguar_udf::UdfDef::runs_in_engine`].
pub(crate) fn inline_pass(udfs: &mut [PlannedUdf]) -> Vec<String> {
    let mut notes = Vec::new();
    for u in udfs.iter_mut() {
        match u.def.runs_in_engine() {
            None => {}
            Some(true) => {
                obs::global().counter("opt.inlined").inc();
                notes.push(format!("inline {}: backend elided", u.def.name));
                u.in_engine = true;
            }
            Some(false) => notes.push(format!(
                "inline {} skipped: loop, call or host callback",
                u.def.name
            )),
        }
    }
    notes
}

/// Estimated per-invocation cost (µs) for ranking: the UDF's observed
/// latency once it has samples, before that its design's cold-start cost.
/// An in-engine UDF crosses nothing, so it costs a trusted-native call.
fn udf_cost_us(slot: &PlannedUdf) -> f64 {
    if slot.in_engine {
        return Design::NATIVE_IN_SERVER.cold_start_us();
    }
    let design = slot.def.imp.design();
    crate::cost::observed_cost_us(&slot.def.name, design.slug())
        .unwrap_or_else(|| design.cold_start_us())
}

/// Re-rank conjuncts within their volatile-fenced segments by
/// `rank = cost / (1 - selectivity)` ([Hel95]'s metric with online
/// selectivity). UDF-free predicates (class 0) always precede
/// UDF-bearing ones (class 1) in a segment; ties (and class 0, whose
/// bind-time cheap-first order is already right) break on bind position,
/// so the pass is a no-op until ranks actually diverge.
fn reorder_pass(scan: &mut BoundScan, opt: &Arc<crate::cost::OptState>) {
    if scan.predicates.len() < 2 {
        return;
    }
    let preds = std::mem::take(&mut scan.predicates);
    // (segment, class, rank, bind position, predicate)
    let mut keyed = Vec::with_capacity(preds.len());
    let mut seg = 0usize;
    for (i, p) in preds.into_iter().enumerate() {
        let pinned = expr_has_pinned_udf(&p, &scan.udfs);
        let mut uds = Vec::new();
        expr_udfs(&p, &mut uds);
        let (class, rank) = if uds.is_empty() {
            (0u8, 0.0f64)
        } else {
            let cost: f64 = uds.iter().map(|&u| udf_cost_us(&scan.udfs[u])).sum();
            let sel = opt.selectivity(&describe(&p, scan));
            (1u8, crate::cost::rank(cost, sel))
        };
        if pinned {
            // A pinned predicate is its own segment: nothing crosses it
            // in either direction, and it never moves itself.
            seg += 1;
            keyed.push((seg, class, rank, i, p));
            seg += 1;
        } else {
            keyed.push((seg, class, rank, i, p));
        }
    }
    keyed.sort_by(|a, b| {
        (a.0, a.1)
            .cmp(&(b.0, b.1))
            .then(a.2.total_cmp(&b.2))
            .then(a.3.cmp(&b.3))
    });
    let mut moved = 0u64;
    scan.reordered = keyed
        .iter()
        .enumerate()
        .map(|(new_pos, &(_, _, _, bind_pos, _))| {
            let m = new_pos != bind_pos;
            moved += u64::from(m);
            m
        })
        .collect();
    scan.predicates = keyed.into_iter().map(|(_, _, _, _, p)| p).collect();
    if moved > 0 {
        obs::global().counter("opt.reordered").add(moved);
        scan.notes
            .push(format!("reorder: moved {moved} predicate(s)"));
    }
}

/// Record which UDFs the executor will consult the memo cache for.
fn memo_notes(scan: &mut BoundScan, opt: &Arc<crate::cost::OptState>) {
    let enabled = opt.memo().is_some();
    let mut notes = Vec::new();
    for u in &scan.udfs {
        if u.in_engine || !u.def.volatility.memoizable() {
            continue;
        }
        notes.push(if enabled {
            format!("memo {}: immutable, results cached", u.def.name)
        } else {
            format!("memo {}: disabled (udf_memo_bytes=0)", u.def.name)
        });
    }
    scan.notes.extend(notes);
}

/// Note the batching gate's verdict for plans that involve UDFs at all
/// (UDF-free plans stay note-free — there was never a crossing to
/// amortize and the trailer would be noise).
fn batch_note(plan: &mut BoundSelect) {
    if plan.scan.udfs.is_empty() {
        return;
    }
    let note = match crate::exec::batch_spec(plan) {
        Ok(spec) => format!("batch: eligible ({})", plan.scan.udfs[spec.udf].def.name),
        Err(reason) => format!("batch: per-tuple ({reason})"),
    };
    plan.scan.notes.push(note);
}

/// Wire a freshly built execution context to the engine's optimizer
/// state: the shared memo cache and the per-predicate selectivity
/// probe (fingerprints follow `scan.predicates` order, which is exactly
/// the order `matches_all` evaluates them in). Only a predicate
/// that calls a UDF is probed: the reorder pass reads no other
/// selectivity, and a tally per distinct `(id = 4711)` would grow the
/// engine's state with every literal a client ever sent.
pub(crate) fn install_opt(scan: &BoundScan, engine: &Engine, ctx: &mut ExecCtx<'_>) {
    ctx.set_memo(engine.opt_state().memo().cloned());
    if scan.udfs.is_empty() {
        return;
    }
    let fingerprint = |p| {
        let mut called = Vec::new();
        expr_udfs(p, &mut called);
        (!called.is_empty()).then(|| describe(p, scan))
    };
    let fps = scan.predicates.iter().map(fingerprint).collect();
    ctx.set_selectivity_probe(fps, Arc::clone(engine.opt_state()));
}
