//! SQL abstract syntax.

use jaguar_common::DataType;

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

impl ArithOp {
    pub fn symbol(self) -> &'static str {
        match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
            ArithOp::Rem => "%",
        }
    }
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// An (unbound) SQL expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `col` or `alias.col`
    Column {
        qualifier: Option<String>,
        name: String,
    },
    Int(i64),
    Float(f64),
    Str(String),
    Blob(Vec<u8>),
    Bool(bool),
    Null,
    /// Unary minus on a numeric literal or expression.
    Neg(Box<Expr>),
    /// Binary arithmetic.
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    /// UDF or aggregate invocation.
    Func {
        name: String,
        args: Vec<Expr>,
    },
    /// `COUNT(*)`.
    CountStar,
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Star,
    /// An expression, optionally aliased.
    Expr { expr: Expr, alias: Option<String> },
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    CreateTable {
        name: String,
        columns: Vec<(String, DataType)>,
    },
    /// `CREATE INDEX name ON table (column)`
    CreateIndex {
        name: String,
        table: String,
        column: String,
    },
    Insert {
        table: String,
        rows: Vec<Vec<Expr>>,
    },
    Drop {
        table: String,
    },
    Select(SelectStmt),
    /// `DELETE FROM table [WHERE pred]`
    Delete {
        table: String,
        predicate: Option<Expr>,
    },
    /// `UPDATE table SET col = expr [, ...] [WHERE pred]`
    Update {
        table: String,
        assignments: Vec<(String, Expr)>,
        predicate: Option<Expr>,
    },
    /// `SHOW TABLES`
    ShowTables,
    /// `DESCRIBE table`
    Describe {
        table: String,
    },
    /// `EXPLAIN [ANALYZE] SELECT ...` — render the optimized plan;
    /// with `ANALYZE`, also execute the query and annotate every operator
    /// with observed row counts and wall time. Plain `EXPLAIN` also takes
    /// a `DELETE` or an `UPDATE` and renders how it finds its rows.
    Explain {
        analyze: bool,
        stmt: Box<Statement>,
    },
}

/// `SELECT items FROM table [alias] [WHERE pred] [GROUP BY cols] [LIMIT n]`
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub items: Vec<SelectItem>,
    pub table: String,
    pub alias: Option<String>,
    pub predicate: Option<Expr>,
    pub group_by: Vec<Expr>,
    /// `HAVING` predicate, evaluated over the **output** columns
    /// (reference them by alias or position).
    pub having: Option<Expr>,
    /// `ORDER BY` keys over the output columns; `true` = descending.
    pub order_by: Vec<(Expr, bool)>,
    pub limit: Option<u64>,
}

impl Expr {
    /// Split a conjunctive predicate into its top-level conjuncts
    /// (the units the optimizer orders).
    pub fn conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::And(l, r) => {
                let mut out = l.conjuncts();
                out.extend(r.conjuncts());
                out
            }
            other => vec![other],
        }
    }

    /// Does this expression invoke any UDF? (Expensive-predicate marker.)
    /// Aggregate names are resolved later, so this treats every call as a
    /// potential UDF, which is conservative and safe for cost ranking.
    pub fn contains_udf(&self) -> bool {
        match self {
            Expr::Func { .. } => true,
            Expr::Neg(e) | Expr::Not(e) => e.contains_udf(),
            Expr::Cmp(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) | Expr::Arith(_, l, r) => {
                l.contains_udf() || r.contains_udf()
            }
            _ => false,
        }
    }

    /// Collect the names of all UDFs referenced.
    pub fn udf_names(&self, out: &mut Vec<String>) {
        match self {
            Expr::Func { name, args } => {
                out.push(name.clone());
                for a in args {
                    a.udf_names(out);
                }
            }
            Expr::Neg(e) | Expr::Not(e) => e.udf_names(out),
            Expr::Cmp(_, l, r) | Expr::And(l, r) | Expr::Or(l, r) | Expr::Arith(_, l, r) => {
                l.udf_names(out);
                r.udf_names(out);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(n: &str) -> Expr {
        Expr::Column {
            qualifier: None,
            name: n.into(),
        }
    }

    #[test]
    fn conjunct_splitting() {
        // (a AND (b AND c)) → [a, b, c]
        let e = Expr::And(
            Box::new(col("a")),
            Box::new(Expr::And(Box::new(col("b")), Box::new(col("c")))),
        );
        assert_eq!(e.conjuncts().len(), 3);
        // OR is not split
        let e = Expr::Or(Box::new(col("a")), Box::new(col("b")));
        assert_eq!(e.conjuncts().len(), 1);
    }

    #[test]
    fn udf_detection() {
        let f = Expr::Func {
            name: "redness".into(),
            args: vec![col("pic")],
        };
        let e = Expr::Cmp(CmpOp::Gt, Box::new(f), Box::new(Expr::Float(0.7)));
        assert!(e.contains_udf());
        assert!(!col("x").contains_udf());
        let mut names = Vec::new();
        e.udf_names(&mut names);
        assert_eq!(names, vec!["redness".to_string()]);
    }
}
