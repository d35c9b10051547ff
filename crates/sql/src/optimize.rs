//! Post-bind optimization passes (the `jaguar-opt` integration point).
//!
//! Three passes run between `bind_select` and execution, in this order:
//!
//! 1. **Froid-style inlining** — JagScript UDFs whose bodies are
//!    straight-line arithmetic/comparisons/conditionals are translated
//!    into native scalar expressions ([`jaguar_opt::try_inline`]). An
//!    inlined UDF never instantiates a backend: no VM entry, no worker
//!    checkout, no crossing. Unsupported shapes bail to the call path
//!    with the reason recorded in the plan notes.
//! 2. **Cost-based predicate reordering** — conjuncts are re-ranked by
//!    `cost / (1 - selectivity)` where cost comes from per-UDF observed
//!    latency histograms (static per-design priors before warm-up) and
//!    selectivity from online pass/fail tallies. UDF-free predicates
//!    always run before sandbox crossings; `Volatile` UDFs pin their
//!    written position and fence reordering around it (the segment
//!    structure is established at bind time and respected here).
//! 3. **Memoization marking** — `Immutable` UDFs that were not inlined
//!    are flagged for the arg-hash result cache consulted by the
//!    executor ([`jaguar_opt::MemoCache`], byte-budgeted by
//!    `Config::udf_memo_bytes`).
//!
//! Every pass is equivalence-preserving: rows, error text, and error
//! order are byte-identical to the unoptimized plan across all four
//! trust designs, serial and parallel, batched and per-tuple.

use std::sync::Arc;

use jaguar_common::obs;

use crate::engine::Engine;
use crate::exec::{backend_slug, ExecCtx};
use crate::plan::{describe, expr_has_pinned_udf, expr_udfs, BoundSelect, PlannedUdf};

/// Run all optimization passes over a bound SELECT (or the SELECT-shaped
/// core of a DML statement). Mutates the plan in place; decision notes
/// accumulate in `plan.notes` for EXPLAIN's `-- plan notes:` trailer.
pub(crate) fn optimize_select(plan: &mut BoundSelect, opt: &Arc<jaguar_opt::OptState>) {
    plan.reordered = vec![false; plan.predicates.len()];
    let notes = inline_pass(&mut plan.udfs);
    plan.notes.extend(notes);
    reorder_pass(plan, opt);
    memo_notes(plan, opt);
    batch_note(plan);
}

/// Froid-style inlining for every JagScript (VM-backed) UDF of a
/// statement — a SELECT's or a DML's; returns the plan notes. Only
/// `Immutable` UDFs are candidates: inlining elides the backend entirely,
/// which a `Stable`/`Volatile` declaration is entitled to notice
/// (connection state reads, side effects, invocation counts). The
/// translation itself happens once per registered UDF
/// ([`jaguar_udf::UdfDef::inline_body`]); a statement only picks it up.
pub(crate) fn inline_pass(udfs: &mut [PlannedUdf]) -> Vec<String> {
    let mut notes = Vec::new();
    for u in udfs.iter_mut() {
        match u.def.inline_body() {
            None => {}
            Some(Ok(body)) => {
                obs::global().counter("opt.inlined").inc();
                notes.push(format!(
                    "inline {}: {} node(s), backend elided",
                    u.def.name, body.nodes
                ));
                u.inline = Some(Arc::clone(body));
            }
            Some(Err(why)) => notes.push(format!("inline {} skipped: {why}", u.def.name)),
        }
    }
    notes
}

/// Estimated per-invocation cost (µs) for ranking. Observed per-UDF
/// latency wins once the named histogram has samples; before warm-up a
/// static per-design prior keeps the ordering deterministic (priors are
/// monotone in crossing weight: cpp < jsm < icpp < ijsm). An inlined
/// UDF is costed as a trusted-native call — it *is* one now.
fn udf_cost_us(slot: &PlannedUdf) -> f64 {
    if slot.inline.is_some() {
        return jaguar_opt::cost::static_cost_us("cpp");
    }
    let slug = backend_slug(slot.def.imp.design_label());
    jaguar_opt::observed_cost_us(&slot.def.name, slug)
        .unwrap_or_else(|| jaguar_opt::cost::static_cost_us(slug))
}

/// Re-rank conjuncts within their volatile-fenced segments by
/// `rank = cost / (1 - selectivity)` ([Hel95]'s metric with online
/// selectivity). UDF-free predicates (class 0) always precede
/// UDF-bearing ones (class 1) in a segment; ties (and class 0, whose
/// bind-time cheap-first order is already right) break on bind position,
/// so the pass is a no-op until ranks actually diverge.
fn reorder_pass(plan: &mut BoundSelect, opt: &Arc<jaguar_opt::OptState>) {
    if plan.predicates.len() < 2 {
        return;
    }
    let preds = std::mem::take(&mut plan.predicates);
    // (segment, class, rank, bind position, predicate)
    let mut keyed = Vec::with_capacity(preds.len());
    let mut seg = 0usize;
    for (i, p) in preds.into_iter().enumerate() {
        let pinned = expr_has_pinned_udf(&p, &plan.udfs);
        let mut uds = Vec::new();
        expr_udfs(&p, &mut uds);
        let (class, rank) = if uds.is_empty() {
            (0u8, 0.0f64)
        } else {
            let cost: f64 = uds.iter().map(|&u| udf_cost_us(&plan.udfs[u])).sum();
            let sel = opt.selectivity(&describe(&p, plan));
            (1u8, jaguar_opt::rank(cost, sel))
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
    plan.reordered = keyed
        .iter()
        .enumerate()
        .map(|(new_pos, &(_, _, _, bind_pos, _))| {
            let m = new_pos != bind_pos;
            moved += u64::from(m);
            m
        })
        .collect();
    plan.predicates = keyed.into_iter().map(|(_, _, _, _, p)| p).collect();
    if moved > 0 {
        obs::global().counter("opt.reordered").add(moved);
        plan.notes
            .push(format!("reorder: moved {moved} predicate(s)"));
    }
}

/// Record which UDFs the executor will consult the memo cache for.
fn memo_notes(plan: &mut BoundSelect, opt: &Arc<jaguar_opt::OptState>) {
    let enabled = opt.memo().is_some();
    let mut notes = Vec::new();
    for u in &plan.udfs {
        if u.inline.is_some() || !u.def.volatility.memoizable() {
            continue;
        }
        notes.push(if enabled {
            format!("memo {}: immutable, results cached", u.def.name)
        } else {
            format!("memo {}: disabled (udf_memo_bytes=0)", u.def.name)
        });
    }
    plan.notes.extend(notes);
}

/// Note the batching gate's verdict for plans that involve UDFs at all
/// (UDF-free plans stay note-free — there was never a crossing to
/// amortize and the trailer would be noise).
fn batch_note(plan: &mut BoundSelect) {
    if plan.udfs.is_empty() {
        return;
    }
    let note = match crate::exec::batch_spec_or_reason(plan) {
        Ok(spec) => format!("batch: eligible ({})", plan.udfs[spec.udf].def.name),
        Err(reason) => format!("batch: per-tuple ({reason})"),
    };
    plan.notes.push(note);
}

/// Wire a freshly built execution context to the engine's optimizer
/// state: the shared memo cache (withheld while the engine is saturated —
/// see [`Engine::memo_for_statement`]) and the per-predicate selectivity
/// probe (fingerprints follow `plan.predicates` order, which is exactly
/// the order `Filter`/`matches_all` evaluate them in). Only a predicate
/// that calls a UDF is probed: the reorder pass reads no other
/// selectivity, and a tally per distinct `(id = 4711)` would grow the
/// engine's state with every literal a client ever sent.
pub(crate) fn install_opt(plan: &BoundSelect, engine: &Engine, ctx: &mut ExecCtx<'_>) {
    ctx.set_memo(engine.memo_for_statement());
    if plan.udfs.is_empty() {
        return;
    }
    let fingerprint = |p| {
        let mut called = Vec::new();
        expr_udfs(p, &mut called);
        (!called.is_empty()).then(|| describe(p, plan))
    };
    let fps = plan.predicates.iter().map(fingerprint).collect();
    ctx.set_selectivity_probe(fps, Arc::clone(engine.opt_state()));
}
