//! Binding and typing: names resolved, expressions typed and labels
//! enforced, for every statement, before anything runs.
//!
//! One `Binder` binds every clause, in one of two scopes. The **table
//! scope** (WHERE, SELECT items, GROUP BY, UPDATE SET, UDF arguments)
//! resolves the columns of the statement's table — a qualifier must name
//! the table or its alias — refuses the columns the session's labels deny,
//! and binds UDF calls. The **output scope** (HAVING, ORDER BY) resolves
//! the SELECT list's output columns and refuses qualified names, UDF calls,
//! aggregates and `COUNT(*)`, so no output expression calls a UDF.
//!
//! The type rules are the same in both: `+ - * / %` need numeric operands
//! (`%` integer ones; a FLOAT operand makes the result FLOAT), unary minus
//! a numeric operand, AND, OR and NOT BOOL operands, and a UDF argument its
//! parameter's type; an untyped NULL satisfies each. A WHERE conjunct and
//! HAVING must be BOOL.
//!
//! Binding also places UDFs, the paper's §2.2 point that *"cost-based
//! query optimization algorithms have been developed to 'place' UDFs
//! within query plans [Hel95, Jhi88]"*: WHERE conjuncts are ordered so
//! that cheap column predicates run first and UDF predicates are deferred,
//! cheaper execution designs before dearer ones. With short-circuit
//! conjunction in the Filter operator, an expensive UDF then runs only on
//! the tuples that survive the cheap predicates — the reason server-side
//! UDF placement matters at all (§2.2). The passes that refine a bound
//! plan live in [`crate::optimize`].

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;

use jaguar_catalog::table::TableIndex;
use jaguar_catalog::{Catalog, Table};
use jaguar_common::error::{JaguarError, Result};
use jaguar_common::obs;
use jaguar_common::schema::{Field, Schema, SchemaRef};
use jaguar_common::{ByteArray, ColumnSet, DataType, Value};
use jaguar_udf::UdfDef;

use crate::ast::{ArithOp, CmpOp, Expr, SelectItem, SelectStmt};
use crate::label::{self, Decision};
use crate::session::SessionContext;

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
    /// Set by the optimizer for a UDF the executor runs in-engine
    /// ([`UdfDef::runs_in_engine`]): on the compiled tier in the statement's
    /// own arena, with no backend, worker or crossing.
    pub in_engine: bool,
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
    use AggFunc::*;
    [Count, Sum, Avg, Min, Max]
        .into_iter()
        .find(|f| f.name().eq_ignore_ascii_case(name))
}

fn expr_mentions_aggregate(e: &Expr) -> bool {
    match e {
        Expr::CountStar => true,
        Expr::Func { name, args } => {
            agg_func_of(name).is_some() || args.iter().any(expr_mentions_aggregate)
        }
        Expr::Neg(i) | Expr::Not(i) => expr_mentions_aggregate(i),
        Expr::Cmp(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) | Expr::Arith(_, l, r) => {
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
    /// The input's type (`None` for `COUNT(*)` or a NULL literal).
    pub arg_ty: Option<DataType>,
    pub out_ty: DataType,
}

/// The aggregation step of a grouped query: the operator's output tuples
/// are `group_exprs ++ aggs`, in that order.
#[derive(Debug, Clone, Default)]
pub struct AggregatePlan {
    pub group_exprs: Vec<BExpr>,
    pub aggs: Vec<AggSpec>,
}

impl AggregatePlan {
    /// Can it fold a record from its bytes? Grouped by plain columns, with
    /// `COUNT(*)`, `COUNT(col)`, `SUM`/`AVG`/`MIN`/`MAX` of a fixed-width one.
    pub(crate) fn folds(&self) -> bool {
        let column = |e: &BExpr| matches!(e, BExpr::Column(_));
        let fixed = |ty| matches!(ty, Some(DataType::Int | DataType::Float | DataType::Bool));
        let folds = |a: &AggSpec| match a.func {
            AggFunc::CountStar => true,
            func => {
                a.arg.as_ref().is_some_and(column) && (func == AggFunc::Count || fixed(a.arg_ty))
            }
        };
        self.group_exprs.iter().all(column) && self.aggs.iter().all(folds)
    }
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

/// A label denial, counted in `sec.auth_denied`. Denials are raised here,
/// at plan time, so the error text is byte-identical across all four trust
/// designs, serial and parallel, batched and per-tuple — the executor never
/// sees an unauthorized plan.
fn denial(message: String) -> JaguarError {
    obs::global().counter(label::AUTH_DENIED).inc();
    JaguarError::SecurityViolation(message)
}

fn deny_table(table: &str, principal: &str) -> JaguarError {
    denial(format!(
        "access to table '{table}' denied for principal '{principal}'"
    ))
}

/// Lower a row-label residual (columns and literals only: partial
/// evaluation substituted every session attribute) to a predicate over the
/// table's columns. An INT literal compared with a VARCHAR column is
/// respelled as a string: the evaluator substitutes an int-parseable
/// session attribute as INT, which is right for INT columns and undone
/// here for string ones.
fn lower_label(e: &Expr, schema: &Schema) -> Result<BExpr> {
    let lower = |e: &Expr| lower_label(e, schema).map(Box::new);
    Ok(match e {
        Expr::Column {
            qualifier: None,
            name,
        } => BExpr::Column(schema.resolve(name)?),
        Expr::Cmp(op, l, r) => {
            let (mut l, mut r) = (lower(l)?, lower(r)?);
            respell(&mut l, &r, schema);
            respell(&mut r, &l, schema);
            BExpr::Cmp(*op, l, r)
        }
        Expr::And(l, r) => BExpr::And(lower(l)?, lower(r)?),
        Expr::Or(l, r) => BExpr::Or(lower(l)?, lower(r)?),
        Expr::Not(inner) => BExpr::Not(lower(inner)?),
        leaf => {
            BExpr::Literal(literal(leaf).ok_or_else(|| {
                JaguarError::Plan(format!("internal: {leaf:?} in a label residual"))
            })?)
        }
    })
}

/// Respell `lit`, an INT literal, as a string when `other` is a VARCHAR
/// column (see [`lower_label`]).
fn respell(lit: &mut BExpr, other: &BExpr, schema: &Schema) {
    if let (BExpr::Literal(Value::Int(k)), BExpr::Column(i)) = (&*lit, other) {
        if schema.field(*i).map(|f| f.dtype) == Some(DataType::Str) {
            *lit = BExpr::Literal(Value::Str(k.to_string()));
        }
    }
}

/// What a statement reads and how: its table, the access path and the
/// columns decoded, the conjuncts judged at the scan and above it, and the
/// statement's UDFs — everything a fragment over its rows needs. A SELECT,
/// a DELETE and an UPDATE each hold one.
pub struct BoundScan {
    pub table: Arc<Table>,
    /// Access path chosen from the WHERE clause's conjuncts.
    pub access: AccessPath,
    /// The table columns the statement reads above its scan. The scan
    /// decodes these and leaves NULL in every other position; a column
    /// only `pushed` conjuncts read is not among them. A SELECT's are its
    /// residual predicates' (the row-label filter included), then group
    /// expressions and aggregate arguments or the projections, UDF
    /// arguments inside any of them; a DELETE's its residual predicates';
    /// an UPDATE's every column — the row it writes is the fetched tuple
    /// with the assigned positions replaced, and a NULL placeholder must
    /// never be written back as data.
    pub scan_cols: ColumnSet,
    /// The leading conjuncts of the WHERE clause that the scan judges on
    /// the record's bytes (`pushable`), in execution order.
    pub pushed: Vec<BExpr>,
    /// The residual conjuncts, evaluated on the rows the scan produces, in
    /// execution order (cheap → expensive).
    pub predicates: Vec<BExpr>,
    /// Parallel to `predicates` once a SELECT's reorder pass ran over two or
    /// more (else empty): true when the pass moved the predicate relative
    /// to its bind-time position.
    pub reordered: Vec<bool>,
    /// UDFs used anywhere in the statement, indexed by `BExpr::Udf::udf`.
    pub udfs: Vec<PlannedUdf>,
    /// Position in execution order (`pushed`, then `predicates`) of the
    /// row-label filter the authorizer injected for this session, if any
    /// (always 0: it is pinned into its own first segment, ahead of every
    /// user predicate, and the reorder pass breaks class-0 ties by bind
    /// position). EXPLAIN tags it `[labeled]`.
    pub labeled: Option<usize>,
    /// Optimizer decision notes (in-engine verdicts, memoization, reorder,
    /// gating reasons) rendered by EXPLAIN's `-- plan notes:` trailer.
    pub notes: Vec<String>,
}

/// A bound, optimized single-table SELECT.
pub struct BoundSelect {
    pub scan: BoundScan,
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
}

/// Does this SELECT fold each record that passes its pushed conjuncts from
/// the record's bytes, with no row decoded or lent? EXPLAIN: `[at scan]`.
pub(crate) fn folds_at_scan(plan: &BoundSelect) -> bool {
    (plan.aggregate.as_ref()).is_some_and(AggregatePlan::folds)
        && matches!(plan.scan.access, AccessPath::FullScan)
        && plan.scan.predicates.is_empty()
}

/// How EXPLAIN tags the aggregate of a plan that [`folds_at_scan`].
pub(crate) fn aggregate_tag(plan: &BoundSelect) -> &'static str {
    ["", " [at scan]"][usize::from(folds_at_scan(plan))]
}

/// Names of the columns in `cols`; `None` if that is all of them.
fn decoded_columns<'a>(table: &'a Table, cols: &ColumnSet) -> Option<Vec<&'a str>> {
    let fields = table.schema().fields().iter().enumerate();
    let wanted = fields.filter(|(i, _)| cols.contains(*i));
    (!cols.is_all()).then(|| wanted.map(|(_, f)| f.name.as_str()).collect())
}

/// The scan operator as EXPLAIN and EXPLAIN ANALYZE name it, with the
/// columns it decodes: `SeqScan wide [grp, v]`, `IndexScan t [*] via t_id`.
pub(crate) fn scan_label(scan: &BoundScan) -> String {
    let name = scan.table.name();
    let cols = decoded_columns(&scan.table, &scan.scan_cols);
    let cols = cols.map_or("*".into(), |names| names.join(", "));
    match &scan.access {
        AccessPath::FullScan => format!("SeqScan {name} [{cols}]"),
        AccessPath::IndexRange { index, .. } => {
            format!("IndexScan {name} [{cols}] via {}", index.name)
        }
        AccessPath::Empty => "EmptyScan".into(),
    }
}

/// The scan's EXPLAIN line: its label plus the rows, key range or verdict
/// it covers — one rendering for SELECT and DML.
fn scan_line(scan: &BoundScan) -> String {
    let label = scan_label(scan);
    match &scan.access {
        AccessPath::FullScan => format!("{label} ({} rows)", scan.table.row_count()),
        AccessPath::IndexRange { lo, hi, .. } => {
            let hi = hi.map_or_else(|| "∞".into(), |h| h.to_string());
            format!("{label} [{lo}, {hi})")
        }
        AccessPath::Empty => format!("{label} (predicate unsatisfiable)"),
    }
}

/// Plan notes for a scan that skips columns or judges conjuncts itself.
pub(crate) fn scan_notes(scan: &BoundScan) -> Vec<String> {
    let mut notes = Vec::new();
    if let Some(some) = decoded_columns(&scan.table, &scan.scan_cols) {
        let (some, all) = (some.len(), scan.table.schema().len());
        notes.push(format!("scan decodes {some} of {all} columns"));
    }
    if !scan.pushed.is_empty() {
        let k = scan.pushed.len();
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
    let mut binder = Binder::for_table(catalog, &stmt.table, stmt.alias.as_deref(), session)?;
    let mut scan = bind_where(&mut binder, &stmt.predicate)?;

    // Aggregate query?
    let is_aggregate = !stmt.group_by.is_empty()
        || stmt.items.iter().any(|it| match it {
            SelectItem::Expr { expr, .. } => expr_mentions_aggregate(expr),
            SelectItem::Star => false,
        });
    let mut aggregate = is_aggregate.then(AggregatePlan::default);
    if let Some(plan) = &mut aggregate {
        for (i, g) in stmt.group_by.iter().enumerate() {
            if expr_mentions_aggregate(g) {
                return Err(JaguarError::Plan(format!(
                    "GROUP BY expression {} contains an aggregate",
                    i + 1
                )));
            }
            plan.group_exprs.push(binder.bind(g)?);
        }
    }

    // The SELECT list. In a grouped query each item reads the aggregation's
    // output: it is an aggregate call or one of the GROUP BY expressions.
    let mut projections = Vec::new();
    let mut fields = Vec::new();
    for (i, item) in stmt.items.iter().enumerate() {
        let (expr, alias) = match item {
            SelectItem::Expr { expr, alias } => (expr, alias),
            SelectItem::Star if aggregate.is_some() => {
                return Err(JaguarError::Plan(
                    "SELECT * cannot be combined with aggregation".into(),
                ))
            }
            SelectItem::Star => {
                // Star expansion sees only the session's visible columns;
                // a star over a fully denied table is a table denial.
                let before = projections.len();
                let schema = binder.table.schema();
                for (idx, f) in schema.fields().iter().enumerate() {
                    if !binder.denied.contains(&idx) {
                        projections.push(BExpr::Column(idx));
                        fields.push(f.clone());
                    }
                }
                if projections.len() == before && !schema.fields().is_empty() {
                    return Err(deny_table(&stmt.table, &binder.principal));
                }
                continue;
            }
        };
        let (bound, ty) = match &mut aggregate {
            Some(plan) => binder.bind_aggregate(plan, expr, i)?,
            None => {
                let bound = binder.bind(expr)?;
                let ty = binder.type_of(&bound).ok_or_else(|| {
                    JaguarError::Plan(format!("projection {} has no type (NULL literal)", i + 1))
                })?;
                (bound, ty)
            }
        };
        let name = match alias {
            Some(a) => a.clone(),
            None => item_name(expr, i, aggregate.is_some()),
        };
        projections.push(bound);
        fields.push(Field::new(name, ty));
    }
    if projections.is_empty() {
        return Err(JaguarError::Plan("empty SELECT list".into()));
    }
    dedupe_names(&mut fields);
    let output_schema = Arc::new(Schema::new(fields)?);

    // A grouped query's projections read the aggregation, not the table.
    let (inputs, aggs): (&[BExpr], &[AggSpec]) = match &aggregate {
        Some(plan) => (&plan.group_exprs, &plan.aggs),
        None => (&projections, &[]),
    };
    let args = aggs.iter().filter_map(|a| a.arg.as_ref());
    scan.scan_cols = referenced_columns(
        binder.table.schema(),
        scan.predicates.iter().chain(inputs).chain(args),
    );

    binder.output = Some(Arc::clone(&output_schema));
    let having = (stmt.having.as_ref())
        .map(|h| binder.predicate(h, || "HAVING must be a boolean predicate".into()))
        .transpose()?;
    let order_by = bind_order_by(&mut binder, &stmt.order_by)?;
    scan.udfs = binder.udfs;
    Ok(BoundSelect {
        scan,
        aggregate,
        projections,
        output_schema,
        having,
        order_by,
        limit: stmt.limit,
    })
}

/// An unaliased SELECT item's output name: a column's name, an aggregate's
/// (or, in an ungrouped query, a UDF's) lower-cased name, else `col<N>`
/// for the N-th item.
fn item_name(expr: &Expr, i: usize, grouped: bool) -> String {
    match expr {
        Expr::Column { name, .. } => name.clone(),
        Expr::CountStar => "count".into(),
        Expr::Func { name, .. } if !grouped || agg_func_of(name).is_some() => {
            name.to_ascii_lowercase()
        }
        _ => format!("col{}", i + 1),
    }
}

/// Output columns may repeat names (`SELECT a, a`): a repeat is renamed
/// `a_2`, `a_3`, … — the first no earlier column has taken.
fn dedupe_names(fields: &mut [Field]) {
    for k in 1..fields.len() {
        let (earlier, rest) = fields.split_at_mut(k);
        let field = &mut rest[0];
        let taken = |name: &str| earlier.iter().any(|f| f.name.eq_ignore_ascii_case(name));
        if !taken(&field.name) {
            continue;
        }
        let base = field.name.clone();
        let mut n = 1;
        while taken(&field.name) {
            n += 1;
            field.name = format!("{base}_{n}");
        }
    }
}

/// Can the scan judge this conjunct on a record's bytes? Only a comparison
/// of a fixed-width column with a non-NULL literal, on either side: it
/// reads tag + 8 (or 1) bytes, calls nothing, and decides with the very
/// function `eval` compares with ([`jaguar_common::value::compare`]).
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
///
/// The scan it returns decodes every column and has no UDFs: the statement
/// sets its `scan_cols` and `udfs` once the rest of it is bound.
fn bind_where(binder: &mut Binder<'_>, predicate: &Option<Expr>) -> Result<BoundScan> {
    // Each conjunct in written order, with its segment and cost rank (see
    // `order_conjuncts`).
    let (mut ranked, mut segment, mut notes) = (Vec::new(), 0, Vec::new());
    let labeled = binder.residual.is_some().then_some(0);
    if let Some(residual) = binder.residual.take() {
        ranked.push((1, 0, residual));
        segment = 2;
        obs::global().counter(label::LABEL_REWRITES).inc();
        notes.push(format!(
            "label: row filter injected for principal '{}'",
            binder.principal
        ));
    }
    if let Some(pred) = predicate {
        for (i, c) in pred.conjuncts().into_iter().enumerate() {
            let bound = binder.predicate(c, || {
                format!("WHERE conjunct {} is not a boolean predicate", i + 1)
            })?;
            let cost = binder.cost_rank(&bound);
            let pinned = usize::from(expr_has_pinned_udf(&bound, &binder.udfs));
            ranked.push((segment + pinned, cost, bound));
            segment += 2 * pinned;
        }
    }
    let mut pushed = order_conjuncts(ranked);
    let access = choose_access_path(&binder.table, &pushed);
    let schema = binder.table.schema();
    let run = pushed.iter().take_while(|p| pushable(p, schema));
    let predicates = pushed.split_off(run.count());
    Ok(BoundScan {
        table: Arc::clone(&binder.table),
        access,
        scan_cols: ColumnSet::all(),
        pushed,
        predicates,
        reordered: Vec::new(),
        udfs: Vec::new(),
        labeled,
        notes,
    })
}

/// Bind ORDER BY keys in the output scope. A bare integer literal at the
/// top level is a 1-based output position, as in classic SQL.
fn bind_order_by(binder: &mut Binder<'_>, keys: &[(Expr, bool)]) -> Result<Vec<(BExpr, bool)>> {
    let width = binder.schema().len();
    keys.iter()
        .map(|(e, desc)| {
            let bound = match e {
                Expr::Int(k) if *k >= 1 && (*k as usize) <= width => BExpr::Column(*k as usize - 1),
                Expr::Int(k) => {
                    return Err(JaguarError::Plan(format!(
                        "ORDER BY position {k} out of range 1..={width}"
                    )))
                }
                other => binder.bind(other)?,
            };
            Ok((bound, *desc))
        })
        .collect()
}

/// Order WHERE conjuncts for execution: cheap → expensive by static cost
/// rank, ties broken by written position — except that conjuncts calling a
/// `Volatile` UDF are pinned where the query wrote them. Nothing moves
/// across a pinned conjunct in either direction, so a volatile UDF's
/// evaluation count and short-circuit exposure match the written query
/// exactly (the planner guard shared with the batching gate).
///
/// `ranked` must arrive in written order, `(segment, cost, expr)`: each
/// pinned conjunct forms its own single-element segment, and free
/// conjuncts sort by cost within the segment between pins (a stable sort:
/// equal costs keep their written order).
fn order_conjuncts(mut ranked: Vec<(usize, u32, BExpr)>) -> Vec<BExpr> {
    ranked.sort_by_key(|(segment, cost, _)| (*segment, *cost));
    ranked.into_iter().map(|(_, _, e)| e).collect()
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

/// Resolves and types the expressions of one statement over one table, in
/// the scopes and by the type rules of the module doc, under the session's
/// label decisions for that table.
struct Binder<'a> {
    catalog: &'a Catalog,
    table: Arc<Table>,
    /// The table's name as the statement spells it.
    name: &'a str,
    alias: Option<&'a str>,
    /// The scope names resolve in: `None` is the table scope, `Some` the
    /// output scope over the SELECT list's columns.
    output: Option<SchemaRef>,
    /// The UDFs bound so far, indexed by `BExpr::Udf::udf`.
    udfs: Vec<PlannedUdf>,
    /// The session's row-label residual over the table's columns: a WHERE
    /// clause's first, pinned conjunct, and the check on every row an
    /// INSERT writes.
    residual: Option<BExpr>,
    /// Column indices denied to the session by column labels: any explicit
    /// reference — projection, predicate, UDF argument, aggregate input,
    /// assignment target — is a plan-time security violation.
    denied: HashSet<usize>,
    /// Principal name for error messages ("" for the system principal).
    principal: String,
}

impl<'a> Binder<'a> {
    /// The one way to a binder: look the table up and evaluate its security
    /// labels against `session`. `None` is the trusted in-process system
    /// principal: no checks, no rewrites — embedded single-tenant use pays
    /// nothing.
    fn for_table(
        catalog: &'a Catalog,
        name: &'a str,
        alias: Option<&'a str>,
        session: Option<&SessionContext>,
    ) -> Result<Binder<'a>> {
        let mut binder = Binder {
            catalog,
            table: catalog.table(name)?,
            name,
            alias,
            output: None,
            udfs: Vec::new(),
            residual: None,
            denied: HashSet::new(),
            principal: String::new(),
        };
        let Some(session) = session else {
            return Ok(binder);
        };
        binder.principal = session.principal().to_string();
        let (table, schema) = (binder.table.name(), binder.table.schema());
        // A stored label that does not parse denies every session.
        let decide = |source: &str| {
            label::parse(source).map_or(Decision::Deny, |l| label::evaluate(&l, Some(session)))
        };
        let labels = catalog.table_labels(table);
        if let Some(source) = &labels.row {
            match decide(source) {
                Decision::Allow => {}
                Decision::Deny => return Err(deny_table(table, &binder.principal)),
                Decision::Residual(expr) => binder.residual = Some(lower_label(&expr, schema)?),
            }
        }
        for (col, source) in &labels.columns {
            if decide(source) != Decision::Allow {
                binder.denied.insert(schema.resolve(col)?);
            }
        }
        Ok(binder)
    }

    /// The columns that names resolve against in the current scope.
    fn schema(&self) -> &Schema {
        self.output.as_deref().unwrap_or(self.table.schema())
    }

    /// Resolve a column reference in the current scope.
    fn column(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        if let Some(q) = qualifier {
            if self.output.is_some() {
                return Err(JaguarError::Plan(
                    "qualified names are not valid for output columns".into(),
                ));
            }
            let matches_alias = self.alias.is_some_and(|a| a.eq_ignore_ascii_case(q));
            if !matches_alias && !self.name.eq_ignore_ascii_case(q) {
                return Err(JaguarError::Plan(format!("unknown table qualifier '{q}'")));
            }
        }
        let idx = self.schema().resolve(name)?;
        if self.output.is_none() && self.denied.contains(&idx) {
            return Err(self.deny_column(idx, self.name));
        }
        Ok(idx)
    }

    /// The denial of a reference to column `idx` of the table, which the
    /// message calls `table`.
    fn deny_column(&self, idx: usize, table: &str) -> JaguarError {
        let column = &self.table.schema().field(idx).expect("resolved").name;
        denial(format!(
            "access to column '{column}' of table '{table}' denied for principal '{}'",
            self.principal
        ))
    }

    fn bind(&mut self, e: &Expr) -> Result<BExpr> {
        let output = self.output.is_some();
        Ok(match e {
            Expr::Column { qualifier, name } => {
                BExpr::Column(self.column(qualifier.as_deref(), name)?)
            }
            Expr::Neg(inner) => {
                let b = self.bind(inner)?;
                match (&b, self.type_of(&b)) {
                    // Fold literal negation so `-5` stays a literal.
                    (BExpr::Literal(Value::Int(v)), _) => {
                        BExpr::Literal(Value::Int(v.wrapping_neg()))
                    }
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
                let lt = self.type_of(&lb);
                let rt = self.type_of(&rb);
                let numeric = |t: &Option<DataType>| {
                    matches!(t, None | Some(DataType::Int | DataType::Float))
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
            Expr::And(l, r) => BExpr::And(
                Box::new(self.boolean("AND", l)?),
                Box::new(self.boolean("AND", r)?),
            ),
            Expr::Or(l, r) => BExpr::Or(
                Box::new(self.boolean("OR", l)?),
                Box::new(self.boolean("OR", r)?),
            ),
            Expr::Not(inner) => BExpr::Not(Box::new(self.boolean("NOT", inner)?)),
            Expr::Func { name, .. } if output => {
                return Err(JaguarError::Plan(format!(
                    "'{name}(..)' cannot appear in HAVING/ORDER BY; name its result \
                     column (alias) or use its position instead"
                )))
            }
            Expr::CountStar if output => {
                return Err(JaguarError::Plan(
                    "COUNT(*) cannot appear in HAVING/ORDER BY; alias it in the \
                     SELECT list and refer to the alias"
                        .into(),
                ))
            }
            Expr::CountStar => {
                return Err(JaguarError::Plan(
                    "COUNT(*) is only allowed in the SELECT list".into(),
                ))
            }
            Expr::Func { name, .. } if agg_func_of(name).is_some() => {
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
                    if let Some(got) = self.type_of(a) {
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
                self.udfs.push(PlannedUdf {
                    def,
                    in_engine: false,
                });
                BExpr::Udf {
                    udf: idx,
                    args: bound_args,
                }
            }
            leaf => BExpr::Literal(literal(leaf).expect("every other expression is a literal")),
        })
    }

    /// Bind an operand of AND, OR or NOT: BOOL or an untyped NULL.
    fn boolean(&mut self, op: &str, e: &Expr) -> Result<BExpr> {
        let bound = self.bind(e)?;
        match self.type_of(&bound) {
            None | Some(DataType::Bool) => Ok(bound),
            Some(other) => Err(JaguarError::Plan(format!(
                "'{op}' needs a BOOL operand, got {}",
                other.sql_name()
            ))),
        }
    }

    /// Bind a WHERE conjunct or HAVING, which must be BOOL; `message` is
    /// the error text when it is not.
    fn predicate(&mut self, e: &Expr, message: impl FnOnce() -> String) -> Result<BExpr> {
        let bound = self.bind(e)?;
        if self.type_of(&bound) != Some(DataType::Bool) {
            return Err(JaguarError::Plan(message()));
        }
        Ok(bound)
    }

    /// Bind one SELECT item of a grouped query to its column of the
    /// aggregation's output (groups first, then aggregates): a top-level
    /// aggregate call adds an aggregate, anything else must be one of the
    /// GROUP BY expressions.
    fn bind_aggregate(
        &mut self,
        plan: &mut AggregatePlan,
        expr: &Expr,
        i: usize,
    ) -> Result<(BExpr, DataType)> {
        let spec = match expr {
            Expr::CountStar => AggSpec {
                func: AggFunc::CountStar,
                arg: None,
                arg_ty: None,
                out_ty: DataType::Int,
            },
            Expr::Func { name, args } if agg_func_of(name).is_some() => {
                self.aggregate_call(name, args)?
            }
            other => {
                let bound = self.bind(other)?;
                let idx = (plan.group_exprs.iter())
                    .position(|g| bexpr_eq(g, &bound, &self.udfs))
                    .ok_or_else(|| {
                        JaguarError::Plan(format!(
                            "SELECT item {} is neither an aggregate nor in GROUP BY",
                            i + 1
                        ))
                    })?;
                let ty = self
                    .type_of(&bound)
                    .ok_or_else(|| JaguarError::Plan("GROUP BY expression has no type".into()))?;
                return Ok((BExpr::Column(idx), ty));
            }
        };
        let (col, ty) = (plan.group_exprs.len() + plan.aggs.len(), spec.out_ty);
        plan.aggs.push(spec);
        Ok((BExpr::Column(col), ty))
    }

    /// Bind the aggregate call `name(args)` of a SELECT item.
    fn aggregate_call(&mut self, name: &str, args: &[Expr]) -> Result<AggSpec> {
        let func = agg_func_of(name).expect("an aggregate name");
        let [arg] = args else {
            return Err(JaguarError::Plan(format!(
                "aggregate '{name}' takes exactly one argument"
            )));
        };
        if expr_mentions_aggregate(arg) {
            return Err(JaguarError::Plan(
                "nested aggregates are not allowed".into(),
            ));
        }
        let arg = self.bind(arg)?;
        let arg_ty = self.type_of(&arg);
        let numeric = matches!(arg_ty, Some(DataType::Int | DataType::Float));
        let out_ty = match func {
            AggFunc::Count | AggFunc::CountStar => DataType::Int,
            AggFunc::Avg if numeric => DataType::Float,
            AggFunc::Sum if numeric => arg_ty.expect("numeric"),
            AggFunc::Avg | AggFunc::Sum => {
                return Err(JaguarError::Plan(format!(
                    "{}() needs a numeric argument, got {arg_ty:?}",
                    func.name()
                )))
            }
            AggFunc::Min | AggFunc::Max => {
                arg_ty.ok_or_else(|| JaguarError::Plan(format!("{name}() argument has no type")))?
            }
        };
        Ok(AggSpec {
            func,
            arg: Some(arg),
            arg_ty,
            out_ty,
        })
    }

    /// Static result type; `None` for the NULL literal.
    fn type_of(&self, e: &BExpr) -> Option<DataType> {
        match e {
            BExpr::Column(i) => Some(self.schema().field(*i).expect("bound column").dtype),
            BExpr::Literal(v) => v.data_type(),
            BExpr::Cmp(..) | BExpr::And(..) | BExpr::Or(..) | BExpr::Not(..) => {
                Some(DataType::Bool)
            }
            BExpr::Arith { float: true, .. } => Some(DataType::Float),
            BExpr::Arith { .. } => Some(DataType::Int),
            BExpr::Neg(inner) => self.type_of(inner),
            BExpr::Udf { udf, .. } => Some(self.udfs[*udf].def.signature.ret),
        }
    }

    /// Cost rank for predicate ordering: 0 = plain column/literal work,
    /// then UDFs by their design's cold-start cost. The dominant term wins.
    fn cost_rank(&self, e: &BExpr) -> u32 {
        match e {
            BExpr::Column(_) | BExpr::Literal(_) => 0,
            BExpr::Cmp(_, l, r)
            | BExpr::And(l, r)
            | BExpr::Or(l, r)
            | BExpr::Arith { lhs: l, rhs: r, .. } => self.cost_rank(l).max(self.cost_rank(r)),
            BExpr::Not(inner) | BExpr::Neg(inner) => self.cost_rank(inner),
            BExpr::Udf { udf, args } => {
                let own = self.udfs[*udf].def.imp.design().cold_start_us() as u32;
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

/// A bound DELETE or UPDATE: the rows it reaches, found exactly as a
/// SELECT with the same WHERE clause finds them, and for UPDATE its
/// assignments.
pub struct BoundDml {
    pub scan: BoundScan,
    /// For UPDATE: (column index, value expression) pairs.
    pub assignments: Vec<(usize, BExpr)>,
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
    let mut binder = Binder::for_table(catalog, table_name, None, session)?;
    let mut scan = bind_where(&mut binder, predicate)?;
    let mut bound_assignments = Vec::with_capacity(assignments.len());
    for (col, expr) in assignments {
        let idx = binder.column(None, col)?;
        let bound = binder.bind(expr)?;
        let want = binder.table.schema().field(idx).expect("resolved").dtype;
        if let Some(got) = binder.type_of(&bound) {
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
    if bound_assignments.is_empty() {
        scan.scan_cols = referenced_columns(binder.table.schema(), &scan.predicates);
    }
    scan.udfs = binder.udfs;
    Ok(BoundDml {
        scan,
        assignments: bound_assignments,
    })
}

/// A bound INSERT: its table and the row-label check every row it writes
/// must pass.
pub struct BoundInsert {
    pub table: Arc<Table>,
    /// The session's row-label residual (`None`: every row passes). A tenant
    /// may only insert rows its own row label admits, or it could plant rows
    /// it cannot see into another tenant's partition.
    pub check: Option<BExpr>,
    principal: String,
}

impl BoundInsert {
    /// The error for a row [`BoundInsert::check`] does not hold for.
    pub fn refusal(&self) -> JaguarError {
        denial(format!(
            "INSERT into table '{}' violates its row label for principal '{}'",
            self.table.name(),
            self.principal
        ))
    }
}

/// Bind an INSERT into `table`, enforcing its security labels for
/// `session`. A session barred from any column may not write rows at all —
/// an INSERT supplies every column.
pub fn bind_insert(
    table: &str,
    catalog: &Catalog,
    session: Option<&SessionContext>,
) -> Result<BoundInsert> {
    let binder = Binder::for_table(catalog, table, None, session)?;
    if let Some(&idx) = binder.denied.iter().min() {
        return Err(binder.deny_column(idx, binder.table.name()));
    }
    Ok(BoundInsert {
        table: binder.table,
        check: binder.residual,
        principal: binder.principal,
    })
}

/// The value of a literal leaf; `None` for any other expression. The one
/// mapping from SQL literals to values, for expressions and VALUES alike.
fn literal(e: &Expr) -> Option<Value> {
    Some(match e {
        Expr::Int(v) => Value::Int(*v),
        Expr::Float(v) => Value::Float(*v),
        Expr::Str(s) => Value::Str(s.clone()),
        Expr::Blob(b) => Value::Bytes(ByteArray::new(b.clone())),
        Expr::Bool(b) => Value::Bool(*b),
        Expr::Null => Value::Null,
        _ => return None,
    })
}

/// One value of an INSERT's VALUES row: a literal, or a negated one.
pub(crate) fn values_literal(e: &Expr) -> Result<Value> {
    if let Expr::Neg(inner) = e {
        return match values_literal(inner)? {
            Value::Int(v) => Ok(Value::Int(v.wrapping_neg())),
            Value::Float(v) => Ok(Value::Float(-v)),
            other => Err(JaguarError::Plan(format!(
                "cannot negate {other} in VALUES"
            ))),
        };
    }
    literal(e).ok_or_else(|| JaguarError::Plan(format!("VALUES requires literals, found {e:?}")))
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
        let exprs: Vec<String> = (plan.projections.iter())
            .map(|p| describe(p, &plan.scan))
            .collect();
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
            "  Aggregate {} group expr(s), {} aggregate(s) [{}]{}",
            agg.group_exprs.len(),
            agg.aggs.len(),
            agg.aggs
                .iter()
                .map(|a| a.func.name())
                .collect::<Vec<_>>()
                .join(", "),
            aggregate_tag(plan)
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
    write_filters(&mut out, frag, &plan.scan);
    let _ = writeln!(out, "{frag}{}", scan_line(&plan.scan));
    out
}

/// One `Filter[i]` line per conjunct of a scan's WHERE clause in execution
/// order — the `pushed` ones, which the scan judges, then the residual
/// ones, checked on every row the scan produces — tagged as EXPLAIN tags
/// them.
fn write_filters(out: &mut String, indent: &str, scan: &BoundScan) {
    let pushed = scan.pushed.len();
    for (i, p) in scan.pushed.iter().chain(&scan.predicates).enumerate() {
        let mut tag = String::new();
        if scan.labeled == Some(i) {
            tag.push_str(" [labeled]");
        }
        if i < pushed {
            tag.push_str(" [at scan]");
        } else if scan.reordered.get(i - pushed).copied().unwrap_or(false) {
            tag.push_str(" [reordered]");
        }
        let _ = writeln!(out, "{indent}Filter[{i}]{tag} {}", describe(p, scan));
    }
}

/// Render a DML statement's plan: the operation and the row source feeding
/// it on the first line — `Update acct [in place] ← IndexScan acct [*] via
/// acct_id [7, 8)` — then the predicates re-checked on every row. An UPDATE
/// assigning only fixed-width columns rewrites each row where it lies;
/// otherwise a row that outgrows its page is deleted and re-inserted.
pub fn explain_dml(dml: &BoundDml) -> String {
    let (table, schema) = (dml.scan.table.name(), dml.scan.table.schema());
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
    let mut out = format!("{op} ← {}\n", scan_line(&dml.scan));
    write_filters(&mut out, "  ", &dml.scan);
    out
}

/// An expression over `scan`'s table as EXPLAIN spells it.
pub(crate) fn describe(e: &BExpr, scan: &BoundScan) -> String {
    let sub = |e: &BExpr| describe(e, scan);
    match e {
        BExpr::Column(i) => (scan.table.schema())
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
            let slot = &scan.udfs[*udf];
            let d = &slot.def;
            let tag = if slot.in_engine { " [inlined]" } else { "" };
            format!(
                "{}[{}]({}){tag}",
                d.name,
                d.imp.design().label(),
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
    use jaguar_udf::{UdfImpl, UdfSignature, Volatility};

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
                UdfImpl::closure(|_, _| Ok(Value::Int(7))),
            )
            .with_volatility(Volatility::Stable),
        );
        let vsig = UdfSignature::new(vec![DataType::Int], DataType::Int);
        cat.udfs().register(
            UdfDef::new(
                "sideeffect",
                vsig.clone(),
                UdfImpl::closure(|a, _| Ok(a[0].clone())),
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
        assert_eq!(plan.scan.predicates.len(), 2);
        assert_eq!(plan.scan.udfs.len(), 1);
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
        // Negating i64::MIN wraps, as evaluating `-x` does.
        let sql = "SELECT id FROM stocks WHERE id > -(-9223372036854775808)";
        let txt = explain(&bind(&cat, sql).unwrap());
        assert!(txt.contains("(id > -9223372036854775808)"), "{txt}");
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
        assert_eq!(plan.scan.labeled, Some(0));
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
        assert_eq!(plan.scan.labeled, None);
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

    /// An engine over `r (id INT, name VARCHAR)` holding `rows` rows, with
    /// `upper`, a UDF over INT, so that `upper(name)` is ill-typed.
    fn matrix_engine(rows: usize) -> crate::engine::Engine {
        let e = crate::engine::Engine::in_memory(Config::default());
        e.execute("CREATE TABLE r (id INT, name VARCHAR)").unwrap();
        for (id, name) in [(1, "one"), (2, "two")].into_iter().take(rows) {
            e.execute(&format!("INSERT INTO r VALUES ({id}, '{name}')"))
                .unwrap();
        }
        let sig = UdfSignature::new(vec![DataType::Int], DataType::Int);
        e.catalog().udfs().register(UdfDef::new(
            "upper",
            sig.clone(),
            UdfImpl::closure(|a, _| Ok(a[0].clone())),
        ));
        e
    }

    /// Each clause an expression can stand in, as a statement around `{}`.
    const POSITIONS: [(&str, &str); 7] = [
        ("WHERE", "SELECT id FROM r WHERE {}"),
        ("SELECT item", "SELECT {} FROM r"),
        ("GROUP BY", "SELECT count(*) FROM r GROUP BY {}"),
        (
            "HAVING",
            "SELECT id, name FROM r GROUP BY id, name HAVING {}",
        ),
        ("ORDER BY", "SELECT id, name FROM r ORDER BY {}"),
        ("UPDATE SET", "UPDATE r SET id = {}"),
        ("UDF argument", "SELECT upper({}) FROM r"),
    ];

    /// Every ill-typed input is a plan error with one text in every clause,
    /// on an empty table and on a full one alike — except where a scope
    /// refuses the input on purpose, with that scope's text. `None`: the
    /// input is well-typed in that clause.
    #[test]
    fn clause_matrix_types_every_clause_alike() {
        const UDF_OUT: &str = "'upper(..)' cannot appear in HAVING/ORDER BY; name its \
                               result column (alias) or use its position instead";
        const COUNT_OUT: &str = "COUNT(*) cannot appear in HAVING/ORDER BY; alias it in \
                                 the SELECT list and refer to the alias";
        const COUNT: &str = "COUNT(*) is only allowed in the SELECT list";
        const QUALIFIED: &str = "qualified names are not valid for output columns";
        let same = |text| [Some(text); 7];
        let cases: [(&str, [Option<&str>; 7]); 7] = [
            ("name + 1", same("'+' needs numeric operands")),
            (
                "-name",
                same("unary minus needs a numeric operand, got VARCHAR"),
            ),
            ("NOT id", same("'NOT' needs a BOOL operand, got INT")),
            ("id OR true", same("'OR' needs a BOOL operand, got INT")),
            ("upper(name)", {
                let udf = Some("udf 'upper' argument 1: expected INT, got VARCHAR");
                [udf, udf, udf, Some(UDF_OUT), Some(UDF_OUT), udf, udf]
            }),
            ("count(*)", {
                let group = Some("GROUP BY expression 1 contains an aggregate");
                let c = Some(COUNT);
                [c, None, group, Some(COUNT_OUT), Some(COUNT_OUT), c, c]
            }),
            ("r.id", {
                let q = Some(QUALIFIED);
                [None, None, None, q, q, None, None]
            }),
        ];
        for rows in [0, 2] {
            let e = matrix_engine(rows);
            for (input, texts) in &cases {
                for ((position, template), want) in POSITIONS.iter().zip(texts) {
                    let Some(want) = want else { continue };
                    let sql = template.replace("{}", input);
                    match e.execute(&sql) {
                        Err(JaguarError::Plan(got)) => {
                            assert_eq!(got, *want, "{input} in {position}, {rows} rows: {sql}")
                        }
                        other => panic!("{input} in {position}, {rows} rows: {sql} gave {other:?}"),
                    }
                }
            }
        }
    }

    /// One well-typed input per clause binds and runs, so the matrix above
    /// cannot pass by refusing everything.
    #[test]
    fn clause_matrix_admits_well_typed_inputs() {
        let inputs = [
            "NOT id > 1 OR name = 'one'",
            "-id + 1",
            "id % 2",
            "NOT id > 1 OR name = 'one'",
            "-id + 1",
            "id * 2",
            "id + 1",
        ];
        for rows in [0, 2] {
            let e = matrix_engine(rows);
            for ((position, template), input) in POSITIONS.iter().zip(inputs) {
                let sql = template.replace("{}", input);
                if let Err(err) = e.execute(&sql) {
                    panic!("{input} in {position}, {rows} rows: {sql} failed: {err}");
                }
            }
        }
    }

    #[test]
    fn aggregates_under_arithmetic_are_aggregates() {
        let cat = setup();
        for group_by in ["-sum(id)", "id + sum(id)"] {
            let sql = format!("SELECT count(*) FROM stocks GROUP BY {group_by}");
            let Err(JaguarError::Plan(err)) = bind(&cat, &sql) else {
                panic!("{sql} must be a plan error");
            };
            assert_eq!(err, "GROUP BY expression 1 contains an aggregate");
        }
    }
}
