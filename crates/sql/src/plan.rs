//! Binding, typing, and optimization.
//!
//! Binding resolves column names to indices and UDF names to catalog
//! definitions; the result is a [`BoundSelect`] the executor can run
//! without further name lookups.
//!
//! The optimizer implements the paper's §2.2 point that *"cost-based query
//! optimization algorithms have been developed to 'place' UDFs within
//! query plans [Hel95, Jhi88]"*: WHERE conjuncts are ordered so that
//! cheap column predicates run first and UDF predicates are deferred,
//! cheaper execution designs before dearer ones. With short-circuit
//! conjunction in the Filter operator, an expensive UDF then runs only on
//! the tuples that survive the cheap predicates — the reason server-side
//! UDF placement matters at all (§2.2).

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;

use jaguar_catalog::table::TableIndex;
use jaguar_catalog::{Catalog, Table};
use jaguar_common::error::{JaguarError, Result};
use jaguar_common::obs;
use jaguar_common::schema::{Field, Schema, SchemaRef};
use jaguar_common::{ByteArray, ColumnSet, DataType, Value};
use jaguar_sec::{LabelDecision, LabelExpr, LabelValue, SessionContext};
use jaguar_udf::{UdfDef, UdfImpl};

use crate::ast::{ArithOp, CmpOp, Expr, SelectItem, SelectStmt};

/// A bound (name-resolved) expression.
#[derive(Debug, Clone)]
pub enum BExpr {
    /// Input column by index.
    Column(usize),
    Literal(Value),
    Cmp(CmpOp, Box<BExpr>, Box<BExpr>),
    And(Box<BExpr>, Box<BExpr>),
    Or(Box<BExpr>, Box<BExpr>),
    Not(Box<BExpr>),
    /// Binary arithmetic; `float` selects the promoted float form.
    Arith {
        op: ArithOp,
        float: bool,
        lhs: Box<BExpr>,
        rhs: Box<BExpr>,
    },
    /// Arithmetic negation.
    Neg(Box<BExpr>),
    /// UDF call; `udf` indexes into the plan's UDF table.
    Udf {
        udf: usize,
        args: Vec<BExpr>,
    },
}

/// A UDF referenced by the plan (instantiated per execution).
pub struct PlannedUdf {
    pub def: UdfDef,
    /// Native scalar body produced by the Froid-style inlining pass
    /// (`jaguar_opt::try_inline`). When set, the executor evaluates the
    /// expression directly and never instantiates a backend for this UDF.
    pub inline: Option<Arc<jaguar_opt::InlineBody>>,
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    CountStar,
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::CountStar => "count(*)",
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

fn agg_func_of(name: &str) -> Option<AggFunc> {
    match name.to_ascii_lowercase().as_str() {
        "count" => Some(AggFunc::Count),
        "sum" => Some(AggFunc::Sum),
        "avg" => Some(AggFunc::Avg),
        "min" => Some(AggFunc::Min),
        "max" => Some(AggFunc::Max),
        _ => None,
    }
}

fn expr_mentions_aggregate(e: &Expr) -> bool {
    match e {
        Expr::CountStar => true,
        Expr::Func { name, args } => {
            agg_func_of(name).is_some() || args.iter().any(expr_mentions_aggregate)
        }
        Expr::Neg(i) | Expr::Not(i) => expr_mentions_aggregate(i),
        Expr::Cmp(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) => {
            expr_mentions_aggregate(l) || expr_mentions_aggregate(r)
        }
        _ => false,
    }
}

/// One aggregate computed by the aggregation operator.
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub func: AggFunc,
    /// Input expression (absent for `COUNT(*)`).
    pub arg: Option<BExpr>,
    pub out_ty: DataType,
}

/// The aggregation step of a grouped query: the operator's output tuples
/// are `group_exprs ++ aggs`, in that order.
#[derive(Debug, Clone, Default)]
pub struct AggregatePlan {
    pub group_exprs: Vec<BExpr>,
    pub aggs: Vec<AggSpec>,
}

/// Structural equality of bound expressions (used to match SELECT items
/// against GROUP BY expressions). UDF calls are compared by registered
/// name + arguments: every bind of `f(x)` allocates a fresh plan-UDF
/// index, so index equality would never match.
fn bexpr_eq(a: &BExpr, b: &BExpr, udfs: &[PlannedUdf]) -> bool {
    match (a, b) {
        (BExpr::Column(x), BExpr::Column(y)) => x == y,
        (BExpr::Literal(x), BExpr::Literal(y)) => x == y,
        (BExpr::Cmp(o1, l1, r1), BExpr::Cmp(o2, l2, r2)) => {
            o1 == o2 && bexpr_eq(l1, l2, udfs) && bexpr_eq(r1, r2, udfs)
        }
        (BExpr::And(l1, r1), BExpr::And(l2, r2)) | (BExpr::Or(l1, r1), BExpr::Or(l2, r2)) => {
            bexpr_eq(l1, l2, udfs) && bexpr_eq(r1, r2, udfs)
        }
        (BExpr::Not(x), BExpr::Not(y)) | (BExpr::Neg(x), BExpr::Neg(y)) => bexpr_eq(x, y, udfs),
        (
            BExpr::Arith {
                op: o1,
                lhs: l1,
                rhs: r1,
                ..
            },
            BExpr::Arith {
                op: o2,
                lhs: l2,
                rhs: r2,
                ..
            },
        ) => o1 == o2 && bexpr_eq(l1, l2, udfs) && bexpr_eq(r1, r2, udfs),
        (BExpr::Udf { udf: u1, args: a1 }, BExpr::Udf { udf: u2, args: a2 }) => {
            udfs[*u1].def.name == udfs[*u2].def.name
                && a1.len() == a2.len()
                && a1.iter().zip(a2).all(|(x, y)| bexpr_eq(x, y, udfs))
        }
        _ => false,
    }
}

/// How the executor reaches the table's rows.
pub enum AccessPath {
    /// Sequential scan of the heap file.
    FullScan,
    /// B+Tree range over an indexed column: keys in `[lo, hi)`
    /// (`hi = None` = unbounded). The originating predicate stays in the
    /// filter list and is re-checked, so the index is purely an
    /// access-path optimization.
    IndexRange {
        index: Arc<TableIndex>,
        lo: i64,
        hi: Option<i64>,
    },
    /// The predicate is provably unsatisfiable (e.g. `col > i64::MAX`).
    Empty,
}

/// Plan-time authorization decision for one (table, session) pair,
/// computed from the catalog's security labels before any binding
/// happens. Denials are raised *here*, at plan time, so the error text is
/// byte-identical across all four trust designs, serial and parallel,
/// batched and per-tuple — the executor never sees an unauthorized plan.
#[derive(Default)]
pub(crate) struct Authz {
    /// Row-label residual for this session, still in label form; the
    /// binder turns it into the plan's first (pinned) filter predicate.
    pub(crate) residual: Option<LabelExpr>,
    /// Column indices this session may not reference (column label
    /// evaluated to deny).
    pub(crate) denied: HashSet<usize>,
    /// Principal name for error messages ("" for the system principal).
    pub(crate) principal: String,
}

/// Evaluate the table's security labels against the caller's session.
/// `None` is the trusted in-process system principal: no checks, no
/// rewrites — embedded single-tenant use pays nothing.
pub(crate) fn authorize(
    catalog: &Catalog,
    table: &Table,
    session: Option<&SessionContext>,
) -> Result<Authz> {
    let Some(session) = session else {
        return Ok(Authz::default());
    };
    let mut authz = Authz {
        residual: None,
        denied: HashSet::new(),
        principal: session.principal().to_string(),
    };
    let labels = catalog.table_labels(table.name());
    if let Some(spec) = &labels.row {
        match spec.expr.evaluate(Some(session)) {
            LabelDecision::Allow => {}
            LabelDecision::Deny => return Err(deny_table(table.name(), &authz.principal)),
            LabelDecision::Residual(expr) => authz.residual = Some(expr),
        }
    }
    for (col, spec) in &labels.columns {
        if !matches!(spec.expr.evaluate(Some(session)), LabelDecision::Allow) {
            authz.denied.insert(table.schema().resolve(col)?);
        }
    }
    Ok(authz)
}

pub(crate) fn deny_table(table: &str, principal: &str) -> JaguarError {
    obs::global()
        .counter(jaguar_sec::metrics::AUTH_DENIED)
        .inc();
    JaguarError::SecurityViolation(format!(
        "access to table '{table}' denied for principal '{principal}'"
    ))
}

pub(crate) fn deny_column(column: &str, table: &str, principal: &str) -> JaguarError {
    obs::global()
        .counter(jaguar_sec::metrics::AUTH_DENIED)
        .inc();
    JaguarError::SecurityViolation(format!(
        "access to column '{column}' of table '{table}' denied for principal '{principal}'"
    ))
}

pub(crate) fn deny_insert(table: &str, principal: &str) -> JaguarError {
    obs::global()
        .counter(jaguar_sec::metrics::AUTH_DENIED)
        .inc();
    JaguarError::SecurityViolation(format!(
        "INSERT into table '{table}' violates its row label for principal '{principal}'"
    ))
}

/// Lower a row-label residual (columns and literals only — session
/// attributes were substituted away by partial evaluation) into a bound
/// predicate over the table's columns. Comparisons against a VARCHAR
/// column coerce an integer literal back to its string spelling: the
/// label evaluator promotes int-parseable session attributes to Int, which
/// is right for INT columns and undone here for string ones.
pub(crate) fn label_to_bexpr(e: &LabelExpr, schema: &Schema) -> Result<BExpr> {
    Ok(match e {
        LabelExpr::Column(name) => BExpr::Column(schema.resolve(name)?),
        LabelExpr::Lit(v) => BExpr::Literal(label_value(v)),
        LabelExpr::Cmp(op, l, r) => {
            let op = match op {
                jaguar_sec::CmpOp::Eq => CmpOp::Eq,
                jaguar_sec::CmpOp::Ne => CmpOp::Ne,
            };
            let mut lb = label_to_bexpr(l, schema)?;
            let mut rb = label_to_bexpr(r, schema)?;
            coerce_str_cmp(&mut lb, &mut rb, schema);
            BExpr::Cmp(op, Box::new(lb), Box::new(rb))
        }
        LabelExpr::And(l, r) => BExpr::And(
            Box::new(label_to_bexpr(l, schema)?),
            Box::new(label_to_bexpr(r, schema)?),
        ),
        LabelExpr::Or(l, r) => BExpr::Or(
            Box::new(label_to_bexpr(l, schema)?),
            Box::new(label_to_bexpr(r, schema)?),
        ),
        LabelExpr::Not(i) => BExpr::Not(Box::new(label_to_bexpr(i, schema)?)),
        LabelExpr::SessionAttr(a) => {
            // Partial evaluation either substitutes every session
            // attribute or denies outright; a residual can't contain one.
            return Err(JaguarError::Plan(format!(
                "internal: unresolved session attribute '{a}' in label residual"
            )));
        }
    })
}

fn label_value(v: &LabelValue) -> Value {
    match v {
        LabelValue::Str(s) => Value::Str(s.clone()),
        LabelValue::Int(i) => Value::Int(*i),
        LabelValue::Bool(b) => Value::Bool(*b),
    }
}

/// If one comparison side is a VARCHAR column and the other an Int
/// literal, respell the literal as a string so the comparison types line
/// up (see [`label_to_bexpr`]).
fn coerce_str_cmp(l: &mut BExpr, r: &mut BExpr, schema: &Schema) {
    let is_str_col = |e: &BExpr| {
        matches!(e, BExpr::Column(i)
            if schema.field(*i).map(|f| f.dtype) == Some(DataType::Str))
    };
    if is_str_col(l) {
        if let BExpr::Literal(Value::Int(k)) = r {
            *r = BExpr::Literal(Value::Str(k.to_string()));
        }
    }
    if is_str_col(r) {
        if let BExpr::Literal(Value::Int(k)) = l {
            *l = BExpr::Literal(Value::Str(k.to_string()));
        }
    }
}

/// A bound, optimized single-table SELECT.
pub struct BoundSelect {
    pub table: Arc<Table>,
    /// Access path chosen by the optimizer.
    pub access: AccessPath,
    /// The table columns the statement reads above its scan — the residual
    /// predicates (the row-label filter included), then group expressions
    /// and aggregate arguments or the projections, UDF arguments inside any
    /// of them. The scan decodes these and leaves NULL in every other
    /// position; a column only `pushed` conjuncts read is not among them.
    pub scan_cols: ColumnSet,
    /// The leading conjuncts of the WHERE clause that the scan judges on
    /// the record's bytes (`pushable`), in execution order.
    pub pushed: Vec<BExpr>,
    /// The residual conjuncts, evaluated on the rows the scan produces, in
    /// execution order (cheap → expensive).
    pub predicates: Vec<BExpr>,
    /// Grouping/aggregation step, if this is an aggregate query. When
    /// present, `projections` reference the aggregate operator's output
    /// columns (groups first, then aggregates).
    pub aggregate: Option<AggregatePlan>,
    /// Projection expressions + output schema.
    pub projections: Vec<BExpr>,
    pub output_schema: SchemaRef,
    /// HAVING predicate, bound over the **output** columns.
    pub having: Option<BExpr>,
    /// ORDER BY keys over the output columns; `true` = descending.
    pub order_by: Vec<(BExpr, bool)>,
    pub limit: Option<u64>,
    /// UDFs used anywhere in the plan, indexed by `BExpr::Udf::udf`.
    pub udfs: Vec<PlannedUdf>,
    /// Parallel to `predicates`: true when the cost/selectivity reorder
    /// pass moved the predicate relative to its bind-time position.
    pub reordered: Vec<bool>,
    /// Position in execution order (`pushed`, then `predicates`) of the
    /// row-label filter the authorizer injected for this session, if any
    /// (always 0: it is pinned into its own first segment, ahead of every
    /// user predicate, and the reorder pass breaks class-0 ties by bind
    /// position). EXPLAIN tags it `[labeled]`.
    pub labeled: Option<usize>,
    /// Optimizer decision notes (inline verdicts, memoization, reorder,
    /// gating reasons) rendered by EXPLAIN's `-- plan notes:` trailer.
    pub notes: Vec<String>,
}

/// Names of the columns in `cols`; `None` if that is all of them.
fn decoded_columns<'a>(table: &'a Table, cols: &ColumnSet) -> Option<Vec<&'a str>> {
    let fields = table.schema().fields().iter().enumerate();
    let wanted = fields.filter(|(i, _)| cols.contains(*i));
    (!cols.is_all()).then(|| wanted.map(|(_, f)| f.name.as_str()).collect())
}

/// The scan operator as EXPLAIN and EXPLAIN ANALYZE name it, with the
/// columns it decodes: `SeqScan wide [grp, v]`, `IndexScan t [*] via t_id`.
pub(crate) fn scan_label(table: &Table, access: &AccessPath, cols: &ColumnSet) -> String {
    let name = table.name();
    let cols = decoded_columns(table, cols).map_or("*".into(), |names| names.join(", "));
    match access {
        AccessPath::FullScan => format!("SeqScan {name} [{cols}]"),
        AccessPath::IndexRange { index, .. } => {
            format!("IndexScan {name} [{cols}] via {}", index.name)
        }
        AccessPath::Empty => "EmptyScan".into(),
    }
}

/// The scan's EXPLAIN line: its label plus the rows, key range or verdict
/// it covers — one rendering for SELECT and DML.
fn scan_line(table: &Table, access: &AccessPath, cols: &ColumnSet) -> String {
    let scan = scan_label(table, access, cols);
    match access {
        AccessPath::FullScan => format!("{scan} ({} rows)", table.row_count()),
        AccessPath::IndexRange { lo, hi, .. } => {
            let hi = hi.map_or_else(|| "∞".into(), |h| h.to_string());
            format!("{scan} [{lo}, {hi})")
        }
        AccessPath::Empty => format!("{scan} (predicate unsatisfiable)"),
    }
}

/// Plan notes for a scan that skips columns or judges conjuncts itself.
pub(crate) fn scan_notes(table: &Table, cols: &ColumnSet, pushed: &[BExpr]) -> Vec<String> {
    let mut notes = Vec::new();
    if let Some(some) = decoded_columns(table, cols) {
        let (some, all) = (some.len(), table.schema().len());
        notes.push(format!("scan decodes {some} of {all} columns"));
    }
    if !pushed.is_empty() {
        let k = pushed.len();
        notes.push(format!("scan judges {k} conjunct(s) on record bytes"));
    }
    notes
}

/// Bind and optimize a SELECT against the catalog, enforcing the table's
/// security labels for `session` (`None` = trusted system principal).
pub fn bind_select(
    stmt: &SelectStmt,
    catalog: &Catalog,
    session: Option<&SessionContext>,
) -> Result<BoundSelect> {
    let table = catalog.table(&stmt.table)?;
    let schema = Arc::clone(table.schema());
    let authz = authorize(catalog, &table, session)?;
    let mut binder = Binder {
        catalog,
        schema: &schema,
        table_name: &stmt.table,
        alias: stmt.alias.as_deref(),
        udfs: Vec::new(),
        denied: &authz.denied,
        principal: &authz.principal,
    };

    let filter = bind_where(&mut binder, &authz, &stmt.predicate, &table)?;

    // Aggregate query?
    let is_aggregate = !stmt.group_by.is_empty()
        || stmt.items.iter().any(|it| match it {
            SelectItem::Expr { expr, .. } => expr_mentions_aggregate(expr),
            SelectItem::Star => false,
        });
    if is_aggregate {
        return bind_aggregate(stmt, table, &schema, binder, filter);
    }

    // Projections.
    let mut projections = Vec::new();
    let mut fields = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        match item {
            SelectItem::Star => {
                // Star expansion sees only the session's visible columns;
                // a star over a fully denied table is a table denial.
                let before = projections.len();
                for (idx, f) in schema.fields().iter().enumerate() {
                    if authz.denied.contains(&idx) {
                        continue;
                    }
                    projections.push(BExpr::Column(idx));
                    fields.push(f.clone());
                }
                if projections.len() == before && !schema.fields().is_empty() {
                    return Err(deny_table(&stmt.table, &authz.principal));
                }
            }
            SelectItem::Expr { expr, alias } => {
                let bound = binder.bind(expr)?;
                let ty = binder.type_of(&bound)?.ok_or_else(|| {
                    JaguarError::Plan(format!("projection {} has no type (NULL literal)", i + 1))
                })?;
                let name = match alias {
                    Some(a) => a.clone(),
                    None => match expr {
                        Expr::Column { name, .. } => name.clone(),
                        Expr::Func { name, .. } => name.to_ascii_lowercase(),
                        _ => format!("col{}", i + 1),
                    },
                };
                projections.push(bound);
                fields.push(Field::new(name, ty));
            }
        }
    }
    if projections.is_empty() {
        return Err(JaguarError::Plan("empty SELECT list".into()));
    }
    // Output columns may repeat names (e.g. `SELECT a, a`); build without
    // the uniqueness check by deduplicating on the fly.
    let mut seen: Vec<String> = Vec::new();
    let fields = fields
        .into_iter()
        .map(|mut f| {
            let base = f.name.clone();
            let mut n = 1;
            while seen.iter().any(|s| s.eq_ignore_ascii_case(&f.name)) {
                n += 1;
                f.name = format!("{base}_{n}");
            }
            seen.push(f.name.clone());
            f
        })
        .collect();

    let output_schema = Arc::new(Schema::new(fields)?);
    let having = bind_output_predicate(&stmt.having, &output_schema)?;
    let order_by = bind_order_by(&stmt.order_by, &output_schema)?;
    let scan_cols = referenced_columns(&schema, filter.predicates.iter().chain(&projections));
    Ok(BoundSelect {
        table,
        access: filter.access,
        scan_cols,
        pushed: filter.pushed,
        predicates: filter.predicates,
        aggregate: None,
        projections,
        output_schema,
        having,
        order_by,
        limit: stmt.limit,
        udfs: binder.udfs,
        reordered: Vec::new(),
        labeled: filter.labeled,
        notes: filter.notes,
    })
}

/// A bound WHERE clause: how its rows are reached and which conjuncts are
/// judged where (fields as [`BoundSelect`]'s).
struct BoundWhere {
    access: AccessPath,
    pushed: Vec<BExpr>,
    predicates: Vec<BExpr>,
    labeled: Option<usize>,
    notes: Vec<String>,
}

/// Can the scan judge this conjunct on a record's bytes? Only a comparison
/// of a fixed-width column with a non-NULL literal, on either side: it
/// reads tag + 8 (or 1) bytes, calls nothing, and decides with the very
/// function `eval` compares with ([`crate::exec::compare`]).
fn pushable(e: &BExpr, schema: &Schema) -> bool {
    let BExpr::Cmp(_, l, r) = e else { return false };
    let ((BExpr::Column(c), BExpr::Literal(v)) | (BExpr::Literal(v), BExpr::Column(c))) =
        (&**l, &**r)
    else {
        return false;
    };
    let fixed = schema
        .field(*c)
        .is_some_and(|f| matches!(f.dtype, DataType::Int | DataType::Float | DataType::Bool));
    fixed && !v.is_null()
}

/// Bind a WHERE clause — SELECT's and DML's alike: split, bind, type-check
/// as boolean, order by cost. The row-label residual (if any) goes first as
/// a pinned conjunct: it forms its own leading segment, so every user
/// predicate — including UDF calls, which would otherwise see unauthorized
/// rows as arguments — runs strictly after it, and so does the re-check of
/// every row an index produced. The access path is chosen from all the
/// conjuncts; then the leading run of [`pushable`] ones is split off for
/// the scan to judge. Only a leading run: a conjunct behind one the scan
/// cannot judge (a UDF call, a label residual over a string) must not see
/// rows that one would have rejected or failed on. No later pass moves a
/// conjunct into or out of the run: the reorder pass keeps UDF-free
/// conjuncts in bind order, ahead of any that calls a UDF.
fn bind_where(
    binder: &mut Binder<'_>,
    authz: &Authz,
    predicate: &Option<Expr>,
    table: &Table,
) -> Result<BoundWhere> {
    let mut ranked: Vec<(u32, usize, bool, BExpr)> = Vec::new();
    let mut notes = Vec::new();
    if let Some(residual) = &authz.residual {
        ranked.push((0, 0, true, label_to_bexpr(residual, binder.schema)?));
        obs::global()
            .counter(jaguar_sec::metrics::LABEL_REWRITES)
            .inc();
        notes.push(format!(
            "label: row filter injected for principal '{}'",
            authz.principal
        ));
    }
    let shift = ranked.len();
    if let Some(pred) = predicate {
        for (i, c) in pred.clone().conjuncts().into_iter().enumerate() {
            let bound = binder.bind(&c)?;
            if binder.type_of(&bound)? != Some(DataType::Bool) {
                return Err(JaguarError::Plan(format!(
                    "WHERE conjunct {} is not a boolean predicate",
                    i + 1
                )));
            }
            let cost = binder.cost_rank(&bound);
            let pinned = expr_has_pinned_udf(&bound, &binder.udfs);
            ranked.push((cost, i + shift, pinned, bound));
        }
    }
    let mut pushed = order_conjuncts(ranked);
    let access = choose_access_path(table, &pushed);
    let run = pushed.iter().take_while(|p| pushable(p, binder.schema));
    let predicates = pushed.split_off(run.count());
    Ok(BoundWhere {
        access,
        pushed,
        predicates,
        labeled: (shift > 0).then_some(0),
        notes,
    })
}

/// Bind a HAVING predicate over the output schema, requiring Bool type.
fn bind_output_predicate(having: &Option<Expr>, schema: &Schema) -> Result<Option<BExpr>> {
    match having {
        None => Ok(None),
        Some(e) => {
            let bound = bind_output_expr(e, schema)?;
            if output_type_of(&bound, schema)? != Some(DataType::Bool) {
                return Err(JaguarError::Plan(
                    "HAVING must be a boolean predicate".into(),
                ));
            }
            Ok(Some(bound))
        }
    }
}

/// Bind ORDER BY keys over the output schema. A bare integer literal at
/// the top level is a 1-based output position, as in classic SQL.
fn bind_order_by(keys: &[(Expr, bool)], schema: &Schema) -> Result<Vec<(BExpr, bool)>> {
    keys.iter()
        .map(|(e, desc)| {
            let bound = match e {
                Expr::Int(k) if *k >= 1 && (*k as usize) <= schema.len() => {
                    BExpr::Column(*k as usize - 1)
                }
                Expr::Int(k) => {
                    return Err(JaguarError::Plan(format!(
                        "ORDER BY position {k} out of range 1..={}",
                        schema.len()
                    )))
                }
                other => bind_output_expr(other, schema)?,
            };
            Ok((bound, *desc))
        })
        .collect()
}

/// Bind an expression over the *output* columns (HAVING / ORDER BY).
/// UDF and aggregate calls are not allowed here — refer to their result
/// column by alias or position instead.
fn bind_output_expr(e: &Expr, schema: &Schema) -> Result<BExpr> {
    Ok(match e {
        Expr::Column { qualifier, name } => {
            if qualifier.is_some() {
                return Err(JaguarError::Plan(
                    "qualified names are not valid for output columns".into(),
                ));
            }
            BExpr::Column(schema.resolve(name)?)
        }
        Expr::Int(v) => BExpr::Literal(Value::Int(*v)),
        Expr::Float(v) => BExpr::Literal(Value::Float(*v)),
        Expr::Str(v) => BExpr::Literal(Value::Str(v.clone())),
        Expr::Blob(b) => BExpr::Literal(Value::Bytes(ByteArray::new(b.clone()))),
        Expr::Bool(b) => BExpr::Literal(Value::Bool(*b)),
        Expr::Null => BExpr::Literal(Value::Null),
        Expr::Neg(inner) => BExpr::Neg(Box::new(bind_output_expr(inner, schema)?)),
        Expr::Not(inner) => BExpr::Not(Box::new(bind_output_expr(inner, schema)?)),
        Expr::Cmp(op, l, r) => BExpr::Cmp(
            *op,
            Box::new(bind_output_expr(l, schema)?),
            Box::new(bind_output_expr(r, schema)?),
        ),
        Expr::And(l, r) => BExpr::And(
            Box::new(bind_output_expr(l, schema)?),
            Box::new(bind_output_expr(r, schema)?),
        ),
        Expr::Or(l, r) => BExpr::Or(
            Box::new(bind_output_expr(l, schema)?),
            Box::new(bind_output_expr(r, schema)?),
        ),
        Expr::Arith(op, l, r) => {
            let lb = bind_output_expr(l, schema)?;
            let rb = bind_output_expr(r, schema)?;
            let float = output_type_of(&lb, schema)? == Some(DataType::Float)
                || output_type_of(&rb, schema)? == Some(DataType::Float);
            if float && *op == ArithOp::Rem {
                return Err(JaguarError::Plan("'%' is integer-only".into()));
            }
            BExpr::Arith {
                op: *op,
                float,
                lhs: Box::new(lb),
                rhs: Box::new(rb),
            }
        }
        Expr::Func { name, .. } => {
            return Err(JaguarError::Plan(format!(
                "'{name}(..)' cannot appear in HAVING/ORDER BY; name its result                  column (alias) or use its position instead"
            )))
        }
        Expr::CountStar => {
            return Err(JaguarError::Plan(
                "COUNT(*) cannot appear in HAVING/ORDER BY; alias it in the                  SELECT list and refer to the alias"
                    .into(),
            ))
        }
    })
}

/// Static type of an output-bound expression.
fn output_type_of(e: &BExpr, schema: &Schema) -> Result<Option<DataType>> {
    Ok(match e {
        BExpr::Column(i) => Some(
            schema
                .field(*i)
                .ok_or_else(|| JaguarError::Plan(format!("output index {i} out of range")))?
                .dtype,
        ),
        BExpr::Literal(v) => v.data_type(),
        BExpr::Cmp(..) | BExpr::And(..) | BExpr::Or(..) | BExpr::Not(..) => Some(DataType::Bool),
        BExpr::Arith { float, .. } => Some(if *float {
            DataType::Float
        } else {
            DataType::Int
        }),
        BExpr::Neg(inner) => output_type_of(inner, schema)?,
        BExpr::Udf { .. } => unreachable!("output binder rejects UDFs"),
    })
}

/// Bind the aggregation form of a SELECT: every item must be either an
/// aggregate call or one of the GROUP BY expressions.
fn bind_aggregate(
    stmt: &SelectStmt,
    table: Arc<Table>,
    schema: &Schema,
    mut binder: Binder<'_>,
    filter: BoundWhere,
) -> Result<BoundSelect> {
    let mut plan = AggregatePlan::default();
    for (i, g) in stmt.group_by.iter().enumerate() {
        if expr_mentions_aggregate(g) {
            return Err(JaguarError::Plan(format!(
                "GROUP BY expression {} contains an aggregate",
                i + 1
            )));
        }
        let bound = binder.bind(g)?;
        plan.group_exprs.push(bound);
    }

    let mut projections = Vec::new();
    let mut fields = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        let SelectItem::Expr { expr, alias } = item else {
            return Err(JaguarError::Plan(
                "SELECT * cannot be combined with aggregation".into(),
            ));
        };
        // Aggregates at the item's top level.
        let (bexpr, ty, default_name): (BExpr, DataType, String) = match expr {
            Expr::CountStar => {
                plan.aggs.push(AggSpec {
                    func: AggFunc::CountStar,
                    arg: None,
                    out_ty: DataType::Int,
                });
                (
                    BExpr::Column(plan.group_exprs.len() + plan.aggs.len() - 1),
                    DataType::Int,
                    "count".to_string(),
                )
            }
            Expr::Func { name, args } if agg_func_of(name).is_some() => {
                let func = agg_func_of(name).expect("checked");
                if args.len() != 1 {
                    return Err(JaguarError::Plan(format!(
                        "aggregate '{name}' takes exactly one argument"
                    )));
                }
                if expr_mentions_aggregate(&args[0]) {
                    return Err(JaguarError::Plan(
                        "nested aggregates are not allowed".into(),
                    ));
                }
                let arg = binder.bind(&args[0])?;
                let arg_ty = binder.type_of(&arg)?;
                let out_ty = match func {
                    AggFunc::Count | AggFunc::CountStar => DataType::Int,
                    AggFunc::Avg => match arg_ty {
                        Some(DataType::Int) | Some(DataType::Float) => DataType::Float,
                        other => {
                            return Err(JaguarError::Plan(format!(
                                "avg() needs a numeric argument, got {other:?}"
                            )))
                        }
                    },
                    AggFunc::Sum => match arg_ty {
                        Some(t @ DataType::Int) | Some(t @ DataType::Float) => t,
                        other => {
                            return Err(JaguarError::Plan(format!(
                                "sum() needs a numeric argument, got {other:?}"
                            )))
                        }
                    },
                    AggFunc::Min | AggFunc::Max => arg_ty.ok_or_else(|| {
                        JaguarError::Plan(format!("{name}() argument has no type"))
                    })?,
                };
                plan.aggs.push(AggSpec {
                    func,
                    arg: Some(arg),
                    out_ty,
                });
                (
                    BExpr::Column(plan.group_exprs.len() + plan.aggs.len() - 1),
                    out_ty,
                    name.to_ascii_lowercase(),
                )
            }
            other => {
                // Must match a GROUP BY expression.
                let bound = binder.bind(other)?;
                let idx = plan
                    .group_exprs
                    .iter()
                    .position(|g| bexpr_eq(g, &bound, &binder.udfs))
                    .ok_or_else(|| {
                        JaguarError::Plan(format!(
                            "SELECT item {} is neither an aggregate nor in GROUP BY",
                            i + 1
                        ))
                    })?;
                let ty = binder
                    .type_of(&bound)?
                    .ok_or_else(|| JaguarError::Plan("GROUP BY expression has no type".into()))?;
                let name = match other {
                    Expr::Column { name, .. } => name.clone(),
                    _ => format!("col{}", i + 1),
                };
                (BExpr::Column(idx), ty, name)
            }
        };
        let name = alias.clone().unwrap_or(default_name);
        projections.push(bexpr);
        fields.push(Field::new(name, ty));
        let _ = ty;
    }
    if projections.is_empty() {
        return Err(JaguarError::Plan("empty SELECT list".into()));
    }
    // Deduplicate output names as in the scalar path.
    let mut seen: Vec<String> = Vec::new();
    let fields: Vec<Field> = fields
        .into_iter()
        .map(|mut f| {
            let base = f.name.clone();
            let mut n = 1;
            while seen.iter().any(|s| s.eq_ignore_ascii_case(&f.name)) {
                n += 1;
                f.name = format!("{base}_{n}");
            }
            seen.push(f.name.clone());
            f
        })
        .collect();

    let output_schema = Arc::new(Schema::new(fields)?);
    let having = bind_output_predicate(&stmt.having, &output_schema)?;
    let order_by = bind_order_by(&stmt.order_by, &output_schema)?;
    // The projections read the aggregate's output, not the table.
    let scan_cols = referenced_columns(
        schema,
        (filter.predicates.iter())
            .chain(&plan.group_exprs)
            .chain(plan.aggs.iter().filter_map(|a| a.arg.as_ref())),
    );
    Ok(BoundSelect {
        table,
        access: filter.access,
        scan_cols,
        pushed: filter.pushed,
        predicates: filter.predicates,
        aggregate: Some(plan),
        projections,
        output_schema,
        having,
        order_by,
        limit: stmt.limit,
        udfs: binder.udfs,
        reordered: Vec::new(),
        labeled: filter.labeled,
        notes: filter.notes,
    })
}

/// Order WHERE conjuncts for execution: cheap → expensive by static cost
/// rank, ties broken by written position — except that conjuncts calling a
/// `Volatile` UDF are pinned where the query wrote them. Nothing moves
/// across a pinned conjunct in either direction, so a volatile UDF's
/// evaluation count and short-circuit exposure match the written query
/// exactly (the planner guard shared with the batching gate).
///
/// `ranked` must arrive in written order: `(cost, written_pos, pinned, expr)`.
fn order_conjuncts(ranked: Vec<(u32, usize, bool, BExpr)>) -> Vec<BExpr> {
    // Each pinned conjunct forms its own single-element segment; free
    // conjuncts sort by (cost, position) within the segment between pins.
    let mut grouped: Vec<(usize, u32, usize, BExpr)> = Vec::with_capacity(ranked.len());
    let mut seg = 0usize;
    for (cost, pos, pinned, e) in ranked {
        if pinned {
            seg += 1;
            grouped.push((seg, cost, pos, e));
            seg += 1;
        } else {
            grouped.push((seg, cost, pos, e));
        }
    }
    grouped.sort_by_key(|(seg, cost, pos, _)| (*seg, *cost, *pos));
    grouped.into_iter().map(|(_, _, _, e)| e).collect()
}

/// Visit `e` and every expression under it, UDF arguments included.
pub(crate) fn walk(e: &BExpr, visit: &mut impl FnMut(&BExpr)) {
    visit(e);
    match e {
        BExpr::Column(_) | BExpr::Literal(_) => {}
        BExpr::Cmp(_, l, r)
        | BExpr::And(l, r)
        | BExpr::Or(l, r)
        | BExpr::Arith { lhs: l, rhs: r, .. } => {
            walk(l, visit);
            walk(r, visit);
        }
        BExpr::Not(i) | BExpr::Neg(i) => walk(i, visit),
        BExpr::Udf { args, .. } => args.iter().for_each(|a| walk(a, visit)),
    }
}

/// Does this expression call a `Volatile` UDF anywhere (including inside
/// UDF arguments)? Such predicates are exempt from reordering, result
/// memoization, and batching alike.
pub(crate) fn expr_has_pinned_udf(e: &BExpr, udfs: &[PlannedUdf]) -> bool {
    let mut called = Vec::new();
    expr_udfs(e, &mut called);
    called.iter().any(|&u| udfs[u].def.volatility.pinned())
}

/// Collect the plan-table indices of every UDF called in `e`.
pub(crate) fn expr_udfs(e: &BExpr, out: &mut Vec<usize>) {
    walk(e, &mut |e| {
        if let BExpr::Udf { udf, .. } = e {
            out.push(*udf);
        }
    });
}

/// The columns of `schema` that expressions bound over it read.
fn referenced_columns<'a>(
    schema: &Schema,
    exprs: impl IntoIterator<Item = &'a BExpr>,
) -> ColumnSet {
    let mut cols = Vec::new();
    for e in exprs {
        walk(e, &mut |e| {
            if let BExpr::Column(i) = e {
                cols.push(*i);
            }
        });
    }
    ColumnSet::of(schema.len(), cols)
}

struct Binder<'a> {
    catalog: &'a Catalog,
    schema: &'a Schema,
    table_name: &'a str,
    alias: Option<&'a str>,
    udfs: Vec<PlannedUdf>,
    /// Column indices denied to the session by column labels: any explicit
    /// reference — projection, predicate, UDF argument, aggregate input —
    /// is a plan-time security violation.
    denied: &'a HashSet<usize>,
    principal: &'a str,
}

impl Binder<'_> {
    fn bind(&mut self, e: &Expr) -> Result<BExpr> {
        Ok(match e {
            Expr::Column { qualifier, name } => {
                if let Some(q) = qualifier {
                    let matches_alias = self.alias.is_some_and(|a| a.eq_ignore_ascii_case(q));
                    let matches_table = self.table_name.eq_ignore_ascii_case(q);
                    if !matches_alias && !matches_table {
                        return Err(JaguarError::Plan(format!("unknown table qualifier '{q}'")));
                    }
                }
                let idx = self.schema.resolve(name)?;
                if self.denied.contains(&idx) {
                    let canonical = &self.schema.field(idx).expect("resolved").name;
                    return Err(deny_column(canonical, self.table_name, self.principal));
                }
                BExpr::Column(idx)
            }
            Expr::Int(v) => BExpr::Literal(Value::Int(*v)),
            Expr::Float(v) => BExpr::Literal(Value::Float(*v)),
            Expr::Str(s) => BExpr::Literal(Value::Str(s.clone())),
            Expr::Blob(b) => BExpr::Literal(Value::Bytes(ByteArray::new(b.clone()))),
            Expr::Bool(b) => BExpr::Literal(Value::Bool(*b)),
            Expr::Null => BExpr::Literal(Value::Null),
            Expr::Neg(inner) => {
                let b = self.bind(inner)?;
                match (&b, self.type_of(&b)?) {
                    // Fold literal negation so `-5` stays a literal.
                    (BExpr::Literal(Value::Int(v)), _) => BExpr::Literal(Value::Int(-v)),
                    (BExpr::Literal(Value::Float(v)), _) => BExpr::Literal(Value::Float(-v)),
                    (_, Some(DataType::Int)) | (_, Some(DataType::Float)) | (_, None) => {
                        BExpr::Neg(Box::new(b))
                    }
                    (_, Some(other)) => {
                        return Err(JaguarError::Plan(format!(
                            "unary minus needs a numeric operand, got {}",
                            other.sql_name()
                        )))
                    }
                }
            }
            Expr::Arith(op, l, r) => {
                let lb = self.bind(l)?;
                let rb = self.bind(r)?;
                let lt = self.type_of(&lb)?;
                let rt = self.type_of(&rb)?;
                let numeric = |t: &Option<DataType>| {
                    matches!(t, None | Some(DataType::Int) | Some(DataType::Float))
                };
                if !numeric(&lt) || !numeric(&rt) {
                    return Err(JaguarError::Plan(format!(
                        "'{}' needs numeric operands",
                        op.symbol()
                    )));
                }
                let float = lt == Some(DataType::Float) || rt == Some(DataType::Float);
                if float && *op == ArithOp::Rem {
                    return Err(JaguarError::Plan("'%' is integer-only".into()));
                }
                BExpr::Arith {
                    op: *op,
                    float,
                    lhs: Box::new(lb),
                    rhs: Box::new(rb),
                }
            }
            Expr::Cmp(op, l, r) => {
                BExpr::Cmp(*op, Box::new(self.bind(l)?), Box::new(self.bind(r)?))
            }
            Expr::And(l, r) => BExpr::And(Box::new(self.bind(l)?), Box::new(self.bind(r)?)),
            Expr::Or(l, r) => BExpr::Or(Box::new(self.bind(l)?), Box::new(self.bind(r)?)),
            Expr::Not(inner) => BExpr::Not(Box::new(self.bind(inner)?)),
            Expr::CountStar => {
                return Err(JaguarError::Plan(
                    "COUNT(*) is only allowed in the SELECT list".into(),
                ))
            }
            Expr::Func { name, args } if agg_func_of(name).is_some() => {
                return Err(JaguarError::Plan(format!(
                    "aggregate '{name}' is only allowed at the top level of the SELECT list"
                )))
            }
            Expr::Func { name, args } => {
                let def = self.catalog.udfs().get(name)?;
                let bound_args: Vec<BExpr> =
                    args.iter().map(|a| self.bind(a)).collect::<Result<_>>()?;
                if bound_args.len() != def.signature.params.len() {
                    return Err(JaguarError::Plan(format!(
                        "udf '{name}' expects {} arguments, got {}",
                        def.signature.params.len(),
                        bound_args.len()
                    )));
                }
                // Static type check where derivable.
                for (i, (a, want)) in bound_args.iter().zip(&def.signature.params).enumerate() {
                    if let Some(got) = self.type_of(a)? {
                        if got != *want {
                            return Err(JaguarError::Plan(format!(
                                "udf '{name}' argument {}: expected {}, got {}",
                                i + 1,
                                want.sql_name(),
                                got.sql_name()
                            )));
                        }
                    }
                }
                let idx = self.udfs.len();
                self.udfs.push(PlannedUdf { def, inline: None });
                BExpr::Udf {
                    udf: idx,
                    args: bound_args,
                }
            }
        })
    }

    /// Static result type; `None` for the NULL literal.
    fn type_of(&self, e: &BExpr) -> Result<Option<DataType>> {
        Ok(match e {
            BExpr::Column(i) => Some(
                self.schema
                    .field(*i)
                    .expect("bound column index valid")
                    .dtype,
            ),
            BExpr::Literal(v) => v.data_type(),
            BExpr::Cmp(..) | BExpr::And(..) | BExpr::Or(..) | BExpr::Not(..) => {
                Some(DataType::Bool)
            }
            BExpr::Arith { float, .. } => Some(if *float {
                DataType::Float
            } else {
                DataType::Int
            }),
            BExpr::Neg(inner) => self.type_of(inner)?,
            BExpr::Udf { udf, .. } => Some(self.udfs[*udf].def.signature.ret),
        })
    }

    /// Cost rank for predicate ordering: 0 = plain column/literal work,
    /// then UDFs by design (in-process native < sandboxed VM < isolated
    /// process < isolated VM). The dominant term wins.
    fn cost_rank(&self, e: &BExpr) -> u32 {
        match e {
            BExpr::Column(_) | BExpr::Literal(_) => 0,
            BExpr::Cmp(_, l, r)
            | BExpr::And(l, r)
            | BExpr::Or(l, r)
            | BExpr::Arith { lhs: l, rhs: r, .. } => self.cost_rank(l).max(self.cost_rank(r)),
            BExpr::Not(inner) | BExpr::Neg(inner) => self.cost_rank(inner),
            BExpr::Udf { udf, args } => {
                let own = match self.udfs[*udf].def.imp {
                    UdfImpl::Native(_) => 1,
                    UdfImpl::Vm(_) => 2,
                    UdfImpl::IsolatedNative { .. } => 3,
                    UdfImpl::IsolatedVm(_) => 4,
                };
                args.iter()
                    .map(|a| self.cost_rank(a))
                    .max()
                    .unwrap_or(0)
                    .max(own)
            }
        }
    }
}

/// Pick an index-backed access path when some conjunct is a comparison
/// between an indexed INT column and an integer literal. The first usable
/// conjunct wins (predicates are already cost-ordered, so it is a cheap
/// one). Conservative by construction: the conjunct is re-checked by the
/// Filter operator.
fn choose_access_path(table: &Table, predicates: &[BExpr]) -> AccessPath {
    /// Extract `(op, column, literal)` from a comparison conjunct,
    /// flipping literal-first forms (`k < col` ≡ `col > k`).
    fn extract(p: &BExpr) -> Option<(CmpOp, usize, i64)> {
        let BExpr::Cmp(op, l, r) = p else { return None };
        match (&**l, &**r) {
            (BExpr::Column(c), BExpr::Literal(Value::Int(k))) => Some((*op, *c, *k)),
            (BExpr::Literal(Value::Int(k)), BExpr::Column(c)) => {
                let flipped = match op {
                    CmpOp::Lt => CmpOp::Gt,
                    CmpOp::Le => CmpOp::Ge,
                    CmpOp::Gt => CmpOp::Lt,
                    CmpOp::Ge => CmpOp::Le,
                    other => *other,
                };
                Some((flipped, *c, *k))
            }
            _ => None,
        }
    }

    // Pick the first indexed column any conjunct mentions, then intersect
    // every conjunct on that column into one key range.
    let mut chosen: Option<(usize, Arc<TableIndex>)> = None;
    for p in predicates {
        if let Some((_, col, _)) = extract(p) {
            if let Some(index) = table.index_on(col) {
                chosen = Some((col, index));
                break;
            }
        }
    }
    let Some((col, index)) = chosen else {
        return AccessPath::FullScan;
    };

    let mut lo = i64::MIN;
    let mut hi: Option<i64> = None; // exclusive upper bound; None = ∞
    let tighten_hi = |hi: &mut Option<i64>, new: i64| {
        *hi = Some(hi.map_or(new, |h| h.min(new)));
    };
    for p in predicates {
        let Some((op, c, k)) = extract(p) else {
            continue;
        };
        if c != col {
            continue;
        }
        match op {
            CmpOp::Eq => {
                lo = lo.max(k);
                if k == i64::MAX {
                    // [MAX, ∞) already covers exactly MAX.
                } else {
                    tighten_hi(&mut hi, k + 1);
                }
            }
            CmpOp::Lt => tighten_hi(&mut hi, k),
            CmpOp::Le => {
                if k != i64::MAX {
                    tighten_hi(&mut hi, k + 1);
                }
            }
            CmpOp::Gt => {
                if k == i64::MAX {
                    return AccessPath::Empty;
                }
                lo = lo.max(k + 1);
            }
            CmpOp::Ge => lo = lo.max(k),
            CmpOp::Ne => {}
        }
    }
    if let Some(h) = hi {
        if lo >= h {
            return AccessPath::Empty;
        }
    }
    AccessPath::IndexRange { index, lo, hi }
}

/// A bound DML predicate + assignments (DELETE/UPDATE).
pub struct BoundDml {
    pub table: Arc<Table>,
    /// How the statement reaches its rows: chosen exactly as for a SELECT
    /// with the same WHERE clause, and every predicate is re-checked on
    /// each row the path produces.
    pub access: AccessPath,
    /// The columns the statement's scan decodes: what the residual
    /// predicates read for DELETE, every column for UPDATE — the row it
    /// writes is the fetched tuple with the assigned positions replaced,
    /// and a NULL placeholder must never be written back as data.
    pub scan_cols: ColumnSet,
    /// As [`BoundSelect::pushed`].
    pub pushed: Vec<BExpr>,
    /// The residual conjuncts, cost-ordered as in SELECT.
    pub predicates: Vec<BExpr>,
    /// For UPDATE: (column index, value expression) pairs.
    pub assignments: Vec<(usize, BExpr)>,
    pub udfs: Vec<PlannedUdf>,
    /// As [`BoundSelect::labeled`].
    pub labeled: Option<usize>,
    /// As [`BoundSelect::notes`].
    pub notes: Vec<String>,
}

/// Bind the predicate (and, for UPDATE, assignments) of a DML statement,
/// enforcing the table's security labels for `session`: the row-label
/// residual restricts which rows the statement may touch (a tenant can
/// mutate only rows it can see) and denied columns may be neither read
/// nor assigned.
pub fn bind_dml(
    table_name: &str,
    predicate: &Option<Expr>,
    assignments: &[(String, Expr)],
    catalog: &Catalog,
    session: Option<&SessionContext>,
) -> Result<BoundDml> {
    let table = catalog.table(table_name)?;
    let schema = Arc::clone(table.schema());
    let authz = authorize(catalog, &table, session)?;
    let mut binder = Binder {
        catalog,
        schema: &schema,
        table_name,
        alias: None,
        udfs: Vec::new(),
        denied: &authz.denied,
        principal: &authz.principal,
    };
    let filter = bind_where(&mut binder, &authz, predicate, &table)?;
    let mut bound_assignments = Vec::with_capacity(assignments.len());
    for (col, expr) in assignments {
        let idx = schema.resolve(col)?;
        if authz.denied.contains(&idx) {
            let canonical = &schema.field(idx).expect("resolved").name;
            return Err(deny_column(canonical, table_name, &authz.principal));
        }
        let bound = binder.bind(expr)?;
        let want = schema.field(idx).expect("resolved").dtype;
        if let Some(got) = binder.type_of(&bound)? {
            if got != want {
                return Err(JaguarError::Plan(format!(
                    "cannot assign {} to column '{col}' of type {}",
                    got.sql_name(),
                    want.sql_name()
                )));
            }
        }
        bound_assignments.push((idx, bound));
    }
    let scan_cols = if bound_assignments.is_empty() {
        referenced_columns(&schema, &filter.predicates)
    } else {
        ColumnSet::all()
    };
    Ok(BoundDml {
        table,
        access: filter.access,
        scan_cols,
        pushed: filter.pushed,
        predicates: filter.predicates,
        assignments: bound_assignments,
        udfs: binder.udfs,
        labeled: filter.labeled,
        notes: filter.notes,
    })
}

/// Render a human-readable plan (used by tests and the EXPLAIN-style API).
pub fn explain(plan: &BoundSelect) -> String {
    explain_inner(plan, None)
}

/// Render the plan with a `Gather (dop=N)` exchange above the pipeline
/// fragment the worker team runs (scan + filters): the parallel planner's
/// decision, as shown by `EXPLAIN` when a query qualifies.
pub fn explain_parallel(plan: &BoundSelect, dop: usize) -> String {
    explain_inner(plan, Some(dop))
}

fn explain_inner(plan: &BoundSelect, gather_dop: Option<usize>) -> String {
    let mut out = String::new();
    let _ = write!(out, "Project {} column(s)", plan.projections.len());
    // When a projection invokes a UDF the expression matters (it shows the
    // backend and whether the optimizer elided it), so spell it out.
    let mut proj_udfs = Vec::new();
    for p in &plan.projections {
        expr_udfs(p, &mut proj_udfs);
    }
    if !proj_udfs.is_empty() {
        let exprs: Vec<String> = plan.projections.iter().map(|p| describe(p, plan)).collect();
        let _ = write!(out, ": {}", exprs.join(", "));
    }
    let _ = writeln!(out);
    if let Some(n) = plan.limit {
        let _ = writeln!(out, "  Limit {n}");
    }
    if !plan.order_by.is_empty() {
        let _ = writeln!(out, "  Sort {} key(s)", plan.order_by.len());
    }
    if plan.having.is_some() {
        let _ = writeln!(out, "  Having <predicate over output>");
    }
    if let Some(agg) = &plan.aggregate {
        let _ = writeln!(
            out,
            "  Aggregate {} group expr(s), {} aggregate(s) [{}]",
            agg.group_exprs.len(),
            agg.aggs.len(),
            agg.aggs
                .iter()
                .map(|a| a.func.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
    // The scan/filter fragment runs inside each Gather worker, so it
    // gains one indent level under the exchange operator.
    let frag = if let Some(dop) = gather_dop {
        let _ = writeln!(out, "  Gather (dop={dop})");
        "    "
    } else {
        "  "
    };
    write_filters(
        &mut out,
        frag,
        (&plan.pushed, &plan.predicates),
        plan.labeled,
        &plan.reordered,
        plan.table.schema(),
        &plan.udfs,
    );
    let scan = scan_line(&plan.table, &plan.access, &plan.scan_cols);
    let _ = writeln!(out, "{frag}{scan}");
    out
}

/// One `Filter[i]` line per conjunct of a plan's WHERE clause in execution
/// order — the `pushed` ones, which its scan judges, then the residual
/// ones, checked on every row the scan produces (`reordered` is parallel to
/// those) — tagged as EXPLAIN tags them.
fn write_filters(
    out: &mut String,
    indent: &str,
    (pushed, residual): (&[BExpr], &[BExpr]),
    labeled: Option<usize>,
    reordered: &[bool],
    schema: &Schema,
    udfs: &[PlannedUdf],
) {
    for (i, p) in pushed.iter().chain(residual).enumerate() {
        let mut tag = String::new();
        if labeled == Some(i) {
            tag.push_str(" [labeled]");
        }
        if i < pushed.len() {
            tag.push_str(" [at scan]");
        } else if reordered.get(i - pushed.len()).copied().unwrap_or(false) {
            tag.push_str(" [reordered]");
        }
        let _ = writeln!(
            out,
            "{indent}Filter[{i}]{tag} {}",
            describe_in(p, schema, udfs)
        );
    }
}

/// Render a DML statement's plan: the operation and the row source feeding
/// it on the first line — `Update acct [in place] ← IndexScan acct [*] via
/// acct_id [7, 8)` — then the predicates re-checked on every row. An UPDATE
/// assigning only fixed-width columns rewrites each row where it lies;
/// otherwise a row that outgrows its page is deleted and re-inserted.
pub fn explain_dml(dml: &BoundDml) -> String {
    let (table, schema) = (dml.table.name(), dml.table.schema());
    let fixed = |(col, _): &(usize, BExpr)| {
        let dtype = schema.field(*col).expect("bound column").dtype;
        !matches!(dtype, DataType::Str | DataType::Bytes)
    };
    let op = if dml.assignments.is_empty() {
        format!("Delete {table}")
    } else if dml.assignments.iter().all(fixed) {
        format!("Update {table} [in place]")
    } else {
        format!("Update {table} [in place if it fits]")
    };
    let scan = scan_line(&dml.table, &dml.access, &dml.scan_cols);
    let mut out = format!("{op} ← {scan}\n");
    write_filters(
        &mut out,
        "  ",
        (&dml.pushed, &dml.predicates),
        dml.labeled,
        &[],
        schema,
        &dml.udfs,
    );
    out
}

pub(crate) fn describe(e: &BExpr, plan: &BoundSelect) -> String {
    describe_in(e, plan.table.schema(), &plan.udfs)
}

fn describe_in(e: &BExpr, schema: &Schema, udfs: &[PlannedUdf]) -> String {
    let sub = |e: &BExpr| describe_in(e, schema, udfs);
    match e {
        BExpr::Column(i) => schema
            .field(*i)
            .map(|f| f.name.clone())
            .unwrap_or_else(|| format!("#{i}")),
        BExpr::Literal(v) => v.to_string(),
        BExpr::Cmp(op, l, r) => format!("({} {} {})", sub(l), op.symbol(), sub(r)),
        BExpr::And(l, r) => format!("({} AND {})", sub(l), sub(r)),
        BExpr::Or(l, r) => format!("({} OR {})", sub(l), sub(r)),
        BExpr::Not(i) => format!("(NOT {})", sub(i)),
        BExpr::Neg(i) => format!("(-{})", sub(i)),
        BExpr::Arith { op, lhs, rhs, .. } => format!("({} {} {})", sub(lhs), op.symbol(), sub(rhs)),
        BExpr::Udf { udf, args } => {
            let slot = &udfs[*udf];
            let d = &slot.def;
            let tag = if slot.inline.is_some() {
                " [inlined]"
            } else {
                ""
            };
            format!(
                "{}[{}]({}){tag}",
                d.name,
                d.imp.design_label(),
                args.iter().map(sub).collect::<Vec<_>>().join(", ")
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use jaguar_common::config::Config;
    use jaguar_common::Tuple;
    use jaguar_udf::{NativeUdf, UdfSignature, Volatility};

    fn setup() -> Catalog {
        let cat = Catalog::in_memory(Config::default());
        let t = cat
            .create_table(
                "stocks",
                Schema::of(&[
                    ("id", DataType::Int),
                    ("type", DataType::Str),
                    ("history", DataType::Bytes),
                ]),
            )
            .unwrap();
        t.insert(Tuple::new(vec![
            Value::Int(1),
            Value::Str("tech".into()),
            Value::Bytes(ByteArray::zeroed(8)),
        ]))
        .unwrap();
        let sig = UdfSignature::new(vec![DataType::Bytes], DataType::Int);
        cat.udfs().register(
            UdfDef::new(
                "investval",
                sig.clone(),
                UdfImpl::Native(NativeUdf::new("investval", sig, |_, _| Ok(Value::Int(7)))),
            )
            .with_volatility(Volatility::Stable),
        );
        let vsig = UdfSignature::new(vec![DataType::Int], DataType::Int);
        cat.udfs().register(
            UdfDef::new(
                "sideeffect",
                vsig.clone(),
                UdfImpl::Native(NativeUdf::new("sideeffect", vsig, |a, _| Ok(a[0].clone()))),
            )
            .with_volatility(Volatility::Volatile),
        );
        cat
    }

    fn bind(cat: &Catalog, sql: &str) -> Result<BoundSelect> {
        bind_as(cat, sql, None)
    }

    fn bind_as(cat: &Catalog, sql: &str, session: Option<&SessionContext>) -> Result<BoundSelect> {
        let crate::ast::Statement::Select(s) = parse(sql)? else {
            panic!("not a select");
        };
        bind_select(&s, cat, session)
    }

    #[test]
    fn binds_paper_intro_query() {
        let cat = setup();
        let plan = bind(
            &cat,
            "SELECT * FROM Stocks S WHERE S.type = 'tech' AND InvestVal(S.history) > 5",
        )
        .unwrap();
        assert_eq!(plan.projections.len(), 3);
        assert_eq!(plan.predicates.len(), 2);
        assert_eq!(plan.udfs.len(), 1);
    }

    #[test]
    fn expensive_predicate_ordered_last() {
        let cat = setup();
        // Written UDF-first; the optimizer must move the cheap predicate up.
        let plan = bind(
            &cat,
            "SELECT id FROM stocks WHERE InvestVal(history) > 5 AND type = 'tech'",
        )
        .unwrap();
        let txt = explain(&plan);
        let cheap_pos = txt.find("(type = 'tech')").expect("cheap predicate shown");
        let udf_pos = txt.find("investval[C++]").expect("udf predicate shown");
        assert!(
            cheap_pos < udf_pos,
            "cheap predicate must precede the UDF:\n{txt}"
        );
    }

    #[test]
    fn volatile_udf_keeps_written_order() {
        let cat = setup();
        // `sideeffect` is Volatile: even written first (the expensive
        // position), it must stay ahead of the cheap column predicate.
        let plan = bind(
            &cat,
            "SELECT id FROM stocks WHERE SideEffect(id) > 0 AND id < 10",
        )
        .unwrap();
        let txt = explain(&plan);
        let udf_pos = txt.find("sideeffect[C++]").expect("udf predicate shown");
        let cheap_pos = txt.find("(id < 10)").expect("cheap predicate shown");
        assert!(
            udf_pos < cheap_pos,
            "volatile UDF must keep its written position:\n{txt}"
        );
        // Predicates around a pin still sort among themselves.
        let plan = bind(
            &cat,
            "SELECT id FROM stocks WHERE InvestVal(history) > 5 AND SideEffect(id) > 0 \
             AND type = 'tech' AND id < 10",
        )
        .unwrap();
        let txt = explain(&plan);
        let investval = txt.find("investval[C++]").unwrap();
        let pin = txt.find("sideeffect[C++]").unwrap();
        let tech = txt.find("(type = 'tech')").unwrap();
        let idlt = txt.find("(id < 10)").unwrap();
        assert!(
            investval < pin && pin < tech && tech < idlt,
            "segments on either side of the pin sort independently:\n{txt}"
        );
    }

    #[test]
    fn unknown_names_rejected() {
        let cat = setup();
        assert!(bind(&cat, "SELECT nope FROM stocks").is_err());
        assert!(bind(&cat, "SELECT id FROM nonexistent").is_err());
        assert!(bind(&cat, "SELECT mystery(id) FROM stocks").is_err());
        assert!(bind(&cat, "SELECT Z.id FROM stocks S").is_err());
    }

    #[test]
    fn qualifier_matches_table_or_alias() {
        let cat = setup();
        assert!(bind(&cat, "SELECT stocks.id FROM stocks").is_ok());
        assert!(bind(&cat, "SELECT S.id FROM stocks S").is_ok());
        assert!(bind(&cat, "SELECT T.id FROM stocks S").is_err());
    }

    #[test]
    fn udf_arity_and_types_checked() {
        let cat = setup();
        assert!(bind(&cat, "SELECT InvestVal() FROM stocks").is_err());
        assert!(bind(&cat, "SELECT InvestVal(id) FROM stocks").is_err());
        assert!(bind(&cat, "SELECT InvestVal(history) FROM stocks").is_ok());
    }

    #[test]
    fn nonboolean_where_rejected() {
        let cat = setup();
        let e = match bind(&cat, "SELECT id FROM stocks WHERE id") {
            Err(e) => e,
            Ok(_) => panic!("non-boolean WHERE must be rejected"),
        };
        assert!(e.to_string().contains("not a boolean"), "{e}");
    }

    #[test]
    fn duplicate_projection_names_are_renamed() {
        let cat = setup();
        let plan = bind(&cat, "SELECT id, id, id AS id FROM stocks").unwrap();
        let names: Vec<_> = plan
            .output_schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        assert_eq!(names.len(), 3);
        let mut unique = names.clone();
        unique.dedup();
        assert_eq!(unique.len(), 3, "{names:?}");
    }

    #[test]
    fn negative_literals_fold() {
        let cat = setup();
        let plan = bind(&cat, "SELECT id FROM stocks WHERE id > -5").unwrap();
        let txt = explain(&plan);
        assert!(txt.contains("(id > -5)"), "{txt}");
    }

    #[test]
    fn row_label_injected_as_first_pinned_filter() {
        let cat = setup();
        cat.set_table_label(
            "stocks",
            Some("type = session.tenant OR session.role = 'admin'"),
        )
        .unwrap();
        let sess = SessionContext::new("alice")
            .with_attr("tenant", "tech")
            .with_attr("role", "member");
        let plan = bind_as(&cat, "SELECT id FROM stocks WHERE id < 10", Some(&sess)).unwrap();
        assert_eq!(plan.labeled, Some(0));
        let txt = explain(&plan);
        assert!(txt.contains("[labeled]"), "{txt}");
        let lab = txt.find("(type = 'tech')").expect("residual shown");
        let user = txt.find("(id < 10)").expect("user predicate shown");
        assert!(lab < user, "label filter must run first:\n{txt}");
        // An admin session folds the label to allow: no residual at all.
        let root = SessionContext::new("root")
            .with_attr("tenant", "x")
            .with_attr("role", "admin");
        let plan = bind_as(&cat, "SELECT id FROM stocks", Some(&root)).unwrap();
        assert_eq!(plan.labeled, None);
        // A session missing a referenced attribute is denied outright.
        let eve = SessionContext::new("eve");
        let Err(err) = bind_as(&cat, "SELECT id FROM stocks", Some(&eve)) else {
            panic!("attribute-less session must be denied");
        };
        assert!(
            err.to_string().contains("denied for principal 'eve'"),
            "{err}"
        );
        // The in-process system principal bypasses labels entirely.
        assert!(bind(&cat, "SELECT id FROM stocks").is_ok());
    }

    #[test]
    fn column_labels_prune_star_and_deny_references() {
        let cat = setup();
        cat.set_column_label("stocks", "history", Some("session.role = 'admin'"))
            .unwrap();
        let sess = SessionContext::new("alice").with_attr("role", "member");
        let plan = bind_as(&cat, "SELECT * FROM stocks", Some(&sess)).unwrap();
        assert_eq!(plan.output_schema.len(), 2, "history must be pruned");
        let Err(err) = bind_as(&cat, "SELECT history FROM stocks", Some(&sess)) else {
            panic!("explicit denied-column reference must fail");
        };
        assert!(err.to_string().contains("column 'history'"), "{err}");
        // The denied column cannot be smuggled out as a UDF argument.
        let Err(err) = bind_as(&cat, "SELECT InvestVal(history) FROM stocks", Some(&sess)) else {
            panic!("denied column as UDF argument must fail");
        };
        assert!(matches!(err, JaguarError::SecurityViolation(_)), "{err}");
        let root = SessionContext::new("root").with_attr("role", "admin");
        let plan = bind_as(&cat, "SELECT * FROM stocks", Some(&root)).unwrap();
        assert_eq!(plan.output_schema.len(), 3);
    }
}
