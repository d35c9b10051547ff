//! SQL recursive-descent parser.

use jaguar_common::error::{JaguarError, Result};
use jaguar_common::DataType;

use crate::ast::*;
use crate::lexer::{lex, Tok};

/// Parse one SQL statement (trailing `;` optional).
pub fn parse(sql: &str) -> Result<Statement> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    if *p.peek() == Tok::Semi {
        p.bump();
    }
    p.expect(Tok::Eof, "end of statement")?;
    Ok(stmt)
}

struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos]
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl std::fmt::Display) -> JaguarError {
        JaguarError::Parse(format!("{msg} (at token {:?})", self.peek()))
    }

    fn expect(&mut self, want: Tok, what: &str) -> Result<()> {
        if *self.peek() == want {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {what}")))
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            _ => Err(self.err(format!("expected {what}"))),
        }
    }

    fn statement(&mut self) -> Result<Statement> {
        match self.peek() {
            Tok::Select => self.select().map(Statement::Select),
            Tok::Create => self.create_table(),
            Tok::Insert => self.insert(),
            Tok::Drop => self.drop(),
            Tok::Delete => self.delete(),
            Tok::Update => self.update(),
            Tok::Show => {
                self.bump();
                self.expect(Tok::Tables, "TABLES")?;
                Ok(Statement::ShowTables)
            }
            Tok::Describe => {
                self.bump();
                let table = self.ident("a table name")?;
                Ok(Statement::Describe { table })
            }
            Tok::Explain => {
                self.bump();
                let analyze = if *self.peek() == Tok::Analyze {
                    self.bump();
                    true
                } else {
                    false
                };
                let stmt = match self.peek() {
                    Tok::Delete => self.delete()?,
                    Tok::Update => self.update()?,
                    _ => Statement::Select(self.select()?),
                };
                Ok(Statement::Explain {
                    analyze,
                    stmt: Box::new(stmt),
                })
            }
            _ => Err(self.err("expected SELECT, CREATE, INSERT, DELETE, UPDATE, or DROP")),
        }
    }

    fn create_table(&mut self) -> Result<Statement> {
        self.expect(Tok::Create, "CREATE")?;
        if *self.peek() == Tok::Index {
            self.bump();
            let name = self.ident("an index name")?;
            self.expect(Tok::On, "ON")?;
            let table = self.ident("a table name")?;
            self.expect(Tok::LParen, "'('")?;
            let column = self.ident("a column name")?;
            self.expect(Tok::RParen, "')'")?;
            return Ok(Statement::CreateIndex {
                name,
                table,
                column,
            });
        }
        self.expect(Tok::Table, "TABLE")?;
        let name = self.ident("a table name")?;
        self.expect(Tok::LParen, "'('")?;
        let mut columns = Vec::new();
        loop {
            let col = self.ident("a column name")?;
            let ty_name = self.ident("a type name")?;
            columns.push((col, DataType::from_sql_name(&ty_name)?));
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(Tok::RParen, "')'")?;
        Ok(Statement::CreateTable { name, columns })
    }

    fn insert(&mut self) -> Result<Statement> {
        self.expect(Tok::Insert, "INSERT")?;
        self.expect(Tok::Into, "INTO")?;
        let table = self.ident("a table name")?;
        self.expect(Tok::Values, "VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(Tok::LParen, "'('")?;
            let mut row = Vec::new();
            loop {
                row.push(self.expr()?);
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
            self.expect(Tok::RParen, "')'")?;
            rows.push(row);
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        Ok(Statement::Insert { table, rows })
    }

    fn drop(&mut self) -> Result<Statement> {
        self.expect(Tok::Drop, "DROP")?;
        self.expect(Tok::Table, "TABLE")?;
        let table = self.ident("a table name")?;
        Ok(Statement::Drop { table })
    }

    fn delete(&mut self) -> Result<Statement> {
        self.expect(Tok::Delete, "DELETE")?;
        self.expect(Tok::From, "FROM")?;
        let table = self.ident("a table name")?;
        let predicate = if *self.peek() == Tok::Where {
            self.bump();
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, predicate })
    }

    fn update(&mut self) -> Result<Statement> {
        self.expect(Tok::Update, "UPDATE")?;
        let table = self.ident("a table name")?;
        self.expect(Tok::Set, "SET")?;
        let mut assignments = Vec::new();
        loop {
            let col = self.ident("a column name")?;
            self.expect(Tok::Eq, "'='")?;
            let value = self.expr()?;
            assignments.push((col, value));
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        let predicate = if *self.peek() == Tok::Where {
            self.bump();
            Some(self.expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            assignments,
            predicate,
        })
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect(Tok::Select, "SELECT")?;
        let mut items = Vec::new();
        loop {
            if *self.peek() == Tok::Star {
                self.bump();
                items.push(SelectItem::Star);
            } else {
                let expr = self.expr()?;
                let alias = if *self.peek() == Tok::As {
                    self.bump();
                    Some(self.ident("an alias")?)
                } else {
                    None
                };
                items.push(SelectItem::Expr { expr, alias });
            }
            if *self.peek() == Tok::Comma {
                self.bump();
            } else {
                break;
            }
        }
        self.expect(Tok::From, "FROM")?;
        let table = self.ident("a table name")?;
        // optional alias: a bare identifier (not a keyword)
        let alias = match self.peek() {
            Tok::Ident(_) => Some(self.ident("an alias")?),
            _ => None,
        };
        let predicate = if *self.peek() == Tok::Where {
            self.bump();
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if *self.peek() == Tok::Group {
            self.bump();
            self.expect(Tok::By, "BY")?;
            loop {
                group_by.push(self.expr()?);
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        let having = if *self.peek() == Tok::Having {
            self.bump();
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if *self.peek() == Tok::Order {
            self.bump();
            self.expect(Tok::By, "BY")?;
            loop {
                let key = self.expr()?;
                let desc = match self.peek() {
                    Tok::Desc => {
                        self.bump();
                        true
                    }
                    Tok::Asc => {
                        self.bump();
                        false
                    }
                    _ => false,
                };
                order_by.push((key, desc));
                if *self.peek() == Tok::Comma {
                    self.bump();
                } else {
                    break;
                }
            }
        }
        let limit = if *self.peek() == Tok::Limit {
            self.bump();
            match self.bump() {
                Tok::Int(n) if n >= 0 => Some(n as u64),
                _ => return Err(self.err("LIMIT needs a non-negative integer")),
            }
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            table,
            alias,
            predicate,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    // -- expressions: OR → AND → NOT → comparison → primary --------------

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.and_expr()?;
        while *self.peek() == Tok::Or {
            self.bump();
            let rhs = self.and_expr()?;
            lhs = Expr::Or(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut lhs = self.not_expr()?;
        while *self.peek() == Tok::And {
            self.bump();
            let rhs = self.not_expr()?;
            lhs = Expr::And(Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if *self.peek() == Tok::Not {
            self.bump();
            let e = self.not_expr()?;
            return Ok(Expr::Not(Box::new(e)));
        }
        self.comparison()
    }

    fn comparison(&mut self) -> Result<Expr> {
        let lhs = self.additive()?;
        let op = match self.peek() {
            Tok::Eq => CmpOp::Eq,
            Tok::NotEq => CmpOp::Ne,
            Tok::Lt => CmpOp::Lt,
            Tok::Le => CmpOp::Le,
            Tok::Gt => CmpOp::Gt,
            Tok::Ge => CmpOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.additive()?;
        Ok(Expr::Cmp(op, Box::new(lhs), Box::new(rhs)))
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut lhs = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => ArithOp::Add,
                Tok::Minus => ArithOp::Sub,
                _ => break,
            };
            self.bump();
            let rhs = self.multiplicative()?;
            lhs = Expr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut lhs = self.primary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => ArithOp::Mul,
                Tok::Slash => ArithOp::Div,
                Tok::Percent => ArithOp::Rem,
                _ => break,
            };
            self.bump();
            let rhs = self.primary()?;
            lhs = Expr::Arith(op, Box::new(lhs), Box::new(rhs));
        }
        Ok(lhs)
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(Expr::Int(v))
            }
            Tok::Float(v) => {
                self.bump();
                Ok(Expr::Float(v))
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Str(s))
            }
            Tok::Blob(b) => {
                self.bump();
                Ok(Expr::Blob(b))
            }
            Tok::Null => {
                self.bump();
                Ok(Expr::Null)
            }
            Tok::True => {
                self.bump();
                Ok(Expr::Bool(true))
            }
            Tok::False => {
                self.bump();
                Ok(Expr::Bool(false))
            }
            Tok::Minus => {
                self.bump();
                let e = self.primary()?;
                Ok(Expr::Neg(Box::new(e)))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(Tok::RParen, "')'")?;
                Ok(e)
            }
            Tok::Ident(first) => {
                self.bump();
                match self.peek() {
                    Tok::Dot => {
                        self.bump();
                        let name = self.ident("a column name")?;
                        Ok(Expr::Column {
                            qualifier: Some(first),
                            name,
                        })
                    }
                    Tok::LParen => {
                        self.bump();
                        // COUNT(*) special form.
                        if *self.peek() == Tok::Star && first.eq_ignore_ascii_case("count") {
                            self.bump();
                            self.expect(Tok::RParen, "')'")?;
                            return Ok(Expr::CountStar);
                        }
                        let mut args = Vec::new();
                        if *self.peek() != Tok::RParen {
                            loop {
                                args.push(self.expr()?);
                                if *self.peek() == Tok::Comma {
                                    self.bump();
                                } else {
                                    break;
                                }
                            }
                        }
                        self.expect(Tok::RParen, "')'")?;
                        Ok(Expr::Func { name: first, args })
                    }
                    _ => Ok(Expr::Column {
                        qualifier: None,
                        name: first,
                    }),
                }
            }
            other => Err(self.err(format!("unexpected {other:?} in expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_query_parses() {
        let stmt =
            parse("SELECT udf(R.ByteArray, 0, 10, 0) FROM Rel10000 R WHERE R.id < 10000;").unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert_eq!(s.table, "Rel10000");
        assert_eq!(s.alias.as_deref(), Some("R"));
        assert_eq!(s.items.len(), 1);
        assert!(s.predicate.is_some());
    }

    #[test]
    fn intro_query_parses() {
        let stmt =
            parse("SELECT * FROM Stocks S WHERE S.type = 'tech' AND InvestVal(S.history) > 5")
                .unwrap();
        let Statement::Select(s) = stmt else { panic!() };
        assert!(matches!(s.items[0], SelectItem::Star));
        let pred = s.predicate.unwrap();
        let conjuncts = pred.conjuncts();
        assert_eq!(conjuncts.len(), 2);
        assert!(!conjuncts[0].contains_udf());
        assert!(conjuncts[1].contains_udf());
    }

    #[test]
    fn create_table() {
        let stmt =
            parse("CREATE TABLE Sunsets (id INT, picture BYTEARRAY, location VARCHAR)").unwrap();
        let Statement::CreateTable { name, columns } = stmt else {
            panic!()
        };
        assert_eq!(name, "Sunsets");
        assert_eq!(columns.len(), 3);
        assert_eq!(columns[1].1, DataType::Bytes);
    }

    #[test]
    fn insert_multi_row_with_literals() {
        let stmt =
            parse("INSERT INTO t VALUES (1, 'a', X'FF00', NULL, -2.5), (2, 'b', X'', TRUE, 3)")
                .unwrap();
        let Statement::Insert { table, rows } = stmt else {
            panic!()
        };
        assert_eq!(table, "t");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 5);
        assert_eq!(rows[0][3], Expr::Null);
        assert!(matches!(rows[0][4], Expr::Neg(_)));
        assert_eq!(rows[1][3], Expr::Bool(true));
    }

    #[test]
    fn drop_table() {
        assert_eq!(
            parse("DROP TABLE t").unwrap(),
            Statement::Drop { table: "t".into() }
        );
    }

    #[test]
    fn select_with_alias_and_limit() {
        let Statement::Select(s) = parse("SELECT a AS x, b FROM t WHERE a >= 1 LIMIT 10").unwrap()
        else {
            panic!()
        };
        assert_eq!(s.items.len(), 2);
        let SelectItem::Expr { alias, .. } = &s.items[0] else {
            panic!()
        };
        assert_eq!(alias.as_deref(), Some("x"));
        assert_eq!(s.limit, Some(10));
    }

    #[test]
    fn boolean_precedence() {
        // a = 1 OR b = 2 AND c = 3  →  OR(a=1, AND(b=2, c=3))
        let Statement::Select(s) = parse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").unwrap()
        else {
            panic!()
        };
        assert!(matches!(s.predicate.unwrap(), Expr::Or(_, _)));
    }

    #[test]
    fn not_parses() {
        let Statement::Select(s) = parse("SELECT * FROM t WHERE NOT a = 1").unwrap() else {
            panic!()
        };
        assert!(matches!(s.predicate.unwrap(), Expr::Not(_)));
    }

    #[test]
    fn errors() {
        assert!(parse("SELECT").is_err());
        assert!(parse("SELECT * FROM").is_err());
        assert!(parse("SELECT * FROM t LIMIT x").is_err());
        assert!(parse("CREATE TABLE t (a QUATERNION)").is_err());
        assert!(parse("SELECT * FROM t; garbage").is_err());
        assert!(parse("ALTER TABLE t").is_err());
    }

    #[test]
    fn delete_and_update_parse() {
        assert_eq!(
            parse("DELETE FROM t WHERE a = 1").unwrap(),
            Statement::Delete {
                table: "t".into(),
                predicate: Some(Expr::Cmp(
                    CmpOp::Eq,
                    Box::new(Expr::Column {
                        qualifier: None,
                        name: "a".into()
                    }),
                    Box::new(Expr::Int(1))
                )),
            }
        );
        assert!(matches!(
            parse("DELETE FROM t").unwrap(),
            Statement::Delete {
                predicate: None,
                ..
            }
        ));
        let Statement::Update {
            table,
            assignments,
            predicate,
        } = parse("UPDATE t SET a = 1, b = 'x' WHERE a = 0").unwrap()
        else {
            panic!()
        };
        assert_eq!(table, "t");
        assert_eq!(assignments.len(), 2);
        assert!(predicate.is_some());
    }

    #[test]
    fn aggregates_parse() {
        let Statement::Select(s) =
            parse("SELECT type, COUNT(*), sum(score) FROM t GROUP BY type LIMIT 5").unwrap()
        else {
            panic!()
        };
        assert_eq!(s.group_by.len(), 1);
        assert_eq!(s.limit, Some(5));
        let SelectItem::Expr { expr, .. } = &s.items[1] else {
            panic!()
        };
        assert_eq!(expr, &Expr::CountStar);
        // count(col) is an ordinary call form
        let Statement::Select(s) = parse("SELECT COUNT(a) FROM t").unwrap() else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        assert!(matches!(expr, Expr::Func { .. }));
    }

    #[test]
    fn nested_function_args() {
        let Statement::Select(s) = parse("SELECT f(g(a), 1, X'00') FROM t").unwrap() else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        let Expr::Func { args, .. } = expr else {
            panic!()
        };
        assert_eq!(args.len(), 3);
        assert!(matches!(args[0], Expr::Func { .. }));
    }
}
