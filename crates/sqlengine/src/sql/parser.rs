//! Recursive-descent SQL parser.

use super::ast::*;
use super::lexer::{lex, Tok, Token};
use crate::error::{Error, Result};
use crate::types::{parse_date, DataType, Value};

/// Parse a batch of `;`-separated statements.
pub fn parse_statements(src: &str) -> Result<Vec<Stmt>> {
    let toks = lex(src)?;
    let mut p = Parser { src, toks, pos: 0 };
    let mut out = Vec::new();
    loop {
        while p.eat_tok(&Tok::Semi) {}
        if p.at_eof() {
            break;
        }
        out.push(p.parse_statement()?);
        if !p.at_eof() && !p.check_tok(&Tok::Semi) {
            return Err(p.err("expected ';' between statements"));
        }
    }
    Ok(out)
}

/// Parse exactly one statement.
pub fn parse_one(src: &str) -> Result<Stmt> {
    let mut stmts = parse_statements(src)?;
    match (stmts.len(), stmts.pop()) {
        (1, Some(stmt)) => Ok(stmt),
        (n, _) => Err(Error::Syntax(format!("expected one statement, got {n}"))),
    }
}

/// Rewrite one SELECT as `SELECT … INTO <table> …`: the `INTO` clause
/// goes right after the select list, where the grammar puts it. Comments
/// between the select list and the rest of the query, and after the query,
/// are dropped, so a `--` comment can never swallow the `INTO` clause or
/// whatever the caller appends after the returned text.
pub fn select_into_sql(select_sql: &str, table: &str) -> Result<String> {
    let mut p = Parser {
        src: select_sql,
        toks: lex(select_sql)?,
        pos: 0,
    };
    let (_, into, list_end) = p.parse_select_into(true)?;
    let query_end = p.toks[p.pos - 1].end;
    while p.eat_tok(&Tok::Semi) {}
    if into.is_some() || !p.at_eof() {
        return Err(p.err("expected a single SELECT without INTO"));
    }
    let mut out = format!("{}\nINTO {table}", &select_sql[..list_end]);
    let rest = p.toks.iter().find(|t| t.start >= list_end);
    if let Some(rest) = rest.filter(|t| t.start < query_end) {
        out.push('\n');
        out.push_str(&select_sql[rest.start..query_end]);
    }
    Ok(out)
}

/// Words that terminate an implicit alias position.
const RESERVED: &[&str] = &[
    "WHERE", "GROUP", "ORDER", "HAVING", "ON", "LEFT", "RIGHT", "INNER", "OUTER", "JOIN", "FROM",
    "SELECT", "UNION", "AND", "OR", "NOT", "AS", "SET", "VALUES", "INTO", "TOP", "DISTINCT",
    "LIMIT", "CROSS", "BY", "WHEN", "THEN", "ELSE", "END", "CASE", "ASC", "DESC", "EXISTS",
    "BETWEEN", "LIKE", "IN", "IS", "NULL",
];

struct Parser<'a> {
    src: &'a str,
    toks: Vec<Token>,
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn peek2(&self) -> &Tok {
        &self.toks[(self.pos + 1).min(self.toks.len() - 1)].tok
    }

    fn at_eof(&self) -> bool {
        matches!(self.peek(), Tok::Eof)
    }

    fn advance(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos < self.toks.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: &str) -> Error {
        Error::Syntax(format!(
            "{msg} near byte {} (found {:?})",
            self.toks[self.pos].start,
            self.peek()
        ))
    }

    /// Case-insensitive keyword check.
    fn check_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.check_kw(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {kw}")))
        }
    }

    fn check_tok(&self, t: &Tok) -> bool {
        self.peek() == t
    }

    fn eat_tok(&mut self, t: &Tok) -> bool {
        if self.check_tok(t) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_tok(&mut self, t: &Tok, what: &str) -> Result<()> {
        if self.eat_tok(t) {
            Ok(())
        } else {
            Err(self.err(&format!("expected {what}")))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.advance();
                Ok(s)
            }
            _ => Err(self.err("expected identifier")),
        }
    }

    // -- statements -----------------------------------------------------------

    fn parse_statement(&mut self) -> Result<Stmt> {
        if self.check_kw("SELECT") {
            return Ok(match self.parse_select_into(true)? {
                (query, Some(table), _) => Stmt::SelectInto { table, query },
                (query, None, _) => Stmt::Select(query),
            });
        }
        if self.eat_kw("INSERT") {
            return self.parse_insert();
        }
        if self.eat_kw("UPDATE") {
            return self.parse_update();
        }
        if self.eat_kw("DELETE") {
            return self.parse_delete();
        }
        if self.check_kw("CREATE") {
            return self.parse_create();
        }
        if self.eat_kw("DROP") {
            return self.parse_drop();
        }
        if self.eat_kw("EXEC") || self.eat_kw("EXECUTE") {
            return self.parse_exec();
        }
        if self.eat_kw("BEGIN") {
            let _ = self.eat_kw("TRAN") || self.eat_kw("TRANSACTION");
            return Ok(Stmt::Begin);
        }
        if self.eat_kw("COMMIT") {
            let _ = self.eat_kw("TRAN") || self.eat_kw("TRANSACTION") || self.eat_kw("WORK");
            return Ok(Stmt::Commit);
        }
        if self.eat_kw("ROLLBACK") {
            let _ = self.eat_kw("TRAN") || self.eat_kw("TRANSACTION") || self.eat_kw("WORK");
            return Ok(Stmt::Rollback);
        }
        if self.eat_kw("SHUTDOWN") {
            let mut nowait = false;
            if self.eat_kw("WITH") {
                self.expect_kw("NOWAIT")?;
                nowait = true;
            }
            return Ok(Stmt::Shutdown { nowait });
        }
        if self.eat_kw("CHECKPOINT") {
            return Ok(Stmt::Checkpoint);
        }
        Err(self.err("expected statement"))
    }

    fn table_name(&mut self) -> Result<TableName> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.advance();
                Ok(TableName {
                    name: s,
                    temp: false,
                })
            }
            Tok::TempIdent(s) => {
                self.advance();
                Ok(TableName {
                    name: s,
                    temp: true,
                })
            }
            _ => Err(self.err("expected table name")),
        }
    }

    fn parse_insert(&mut self) -> Result<Stmt> {
        self.expect_kw("INTO")?;
        let table = self.table_name()?;
        let mut columns = None;
        if self.check_tok(&Tok::LParen) {
            // Could be a column list or directly VALUES — column list only.
            self.advance();
            let mut cols = Vec::new();
            loop {
                cols.push(self.ident()?);
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
            self.expect_tok(&Tok::RParen, ")")?;
            columns = Some(cols);
        }
        if self.eat_kw("VALUES") {
            let mut rows = Vec::new();
            loop {
                self.expect_tok(&Tok::LParen, "(")?;
                let mut row = Vec::new();
                loop {
                    row.push(self.parse_expr()?);
                    if !self.eat_tok(&Tok::Comma) {
                        break;
                    }
                }
                self.expect_tok(&Tok::RParen, ")")?;
                rows.push(row);
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
            Ok(Stmt::Insert {
                table,
                columns,
                source: InsertSource::Values(rows),
            })
        } else if self.check_kw("SELECT") {
            let q = self.parse_select()?;
            Ok(Stmt::Insert {
                table,
                columns,
                source: InsertSource::Select(Box::new(q)),
            })
        } else {
            Err(self.err("expected VALUES or SELECT"))
        }
    }

    fn parse_update(&mut self) -> Result<Stmt> {
        let table = self.table_name()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect_tok(&Tok::Eq, "=")?;
            sets.push((col, self.parse_expr()?));
            if !self.eat_tok(&Tok::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Stmt::Update {
            table,
            sets,
            filter,
        })
    }

    fn parse_delete(&mut self) -> Result<Stmt> {
        self.expect_kw("FROM")?;
        let table = self.table_name()?;
        let filter = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Stmt::Delete { table, filter })
    }

    fn parse_create(&mut self) -> Result<Stmt> {
        self.expect_kw("CREATE")?;
        let or_replace = if self.eat_kw("OR") {
            self.expect_kw("REPLACE")?;
            true
        } else {
            false
        };
        if self.eat_kw("TABLE") {
            if or_replace {
                return Err(self.err("OR REPLACE is only supported for procedures"));
            }
            return self.parse_create_table();
        }
        if self.eat_kw("PROCEDURE") || self.eat_kw("PROC") {
            return self.parse_create_proc(or_replace);
        }
        Err(self.err("expected TABLE or PROCEDURE"))
    }

    fn parse_create_table(&mut self) -> Result<Stmt> {
        let table = self.table_name()?;
        self.expect_tok(&Tok::LParen, "(")?;
        let mut columns: Vec<ColumnDef> = Vec::new();
        let mut primary_key: Vec<String> = Vec::new();
        loop {
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                self.expect_tok(&Tok::LParen, "(")?;
                loop {
                    primary_key.push(self.ident()?);
                    if !self.eat_tok(&Tok::Comma) {
                        break;
                    }
                }
                self.expect_tok(&Tok::RParen, ")")?;
            } else {
                let name = self.ident()?;
                let dtype = self.parse_type()?;
                let mut not_null = false;
                let mut pk = false;
                loop {
                    if self.eat_kw("NOT") {
                        self.expect_kw("NULL")?;
                        not_null = true;
                    } else if self.eat_kw("NULL") {
                        // explicit nullable, default
                    } else if self.eat_kw("PRIMARY") {
                        self.expect_kw("KEY")?;
                        pk = true;
                        not_null = true;
                    } else {
                        break;
                    }
                }
                columns.push(ColumnDef {
                    name,
                    dtype,
                    not_null,
                    primary_key: pk,
                });
            }
            if !self.eat_tok(&Tok::Comma) {
                break;
            }
        }
        self.expect_tok(&Tok::RParen, ")")?;
        Ok(Stmt::CreateTable {
            table,
            columns,
            primary_key,
        })
    }

    fn parse_type(&mut self) -> Result<DataType> {
        let name = self.ident()?.to_ascii_uppercase();
        let dt = match name.as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" | "TINYINT" => DataType::Int,
            "FLOAT" | "REAL" | "DOUBLE" | "DECIMAL" | "NUMERIC" | "MONEY" => DataType::Float,
            "VARCHAR" | "CHAR" | "NVARCHAR" | "NCHAR" | "TEXT" | "STRING" => DataType::Str,
            "DATE" | "DATETIME" | "TIMESTAMP" => DataType::Date,
            other => return Err(Error::Syntax(format!("unknown type {other}"))),
        };
        // Optional length/precision arguments: VARCHAR(25), DECIMAL(15,2).
        if self.eat_tok(&Tok::LParen) {
            loop {
                match self.advance() {
                    Tok::Int(_) => {}
                    _ => return Err(self.err("expected length in type")),
                }
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
            self.expect_tok(&Tok::RParen, ")")?;
        }
        if name == "DOUBLE" {
            let _ = self.eat_kw("PRECISION");
        }
        Ok(dt)
    }

    fn parse_create_proc(&mut self, or_replace: bool) -> Result<Stmt> {
        let name = self.ident()?;
        let mut params = Vec::new();
        let parenthesised = self.eat_tok(&Tok::LParen);
        if parenthesised || matches!(self.peek(), Tok::Param(_)) {
            if !self.check_tok(&Tok::RParen) {
                loop {
                    match self.advance() {
                        Tok::Param(p) => {
                            let dt = self.parse_type()?;
                            params.push((p, dt));
                        }
                        _ => return Err(self.err("expected @param")),
                    }
                    if !self.eat_tok(&Tok::Comma) {
                        break;
                    }
                }
            }
            if parenthesised {
                self.expect_tok(&Tok::RParen, ")")?;
            }
        }
        self.expect_kw("AS")?;
        // Body: the rest of the source text. Validate it parses, but store
        // raw text so parameters bind at EXEC time.
        let body_start = self.toks[self.pos].start;
        let body = self.src[body_start..].trim().to_string();
        if body.is_empty() {
            return Err(self.err("empty procedure body"));
        }
        // Consume the remaining tokens.
        self.pos = self.toks.len() - 1;
        // Validation parse (parameters appear as Expr::Param).
        parse_statements(&body)?;
        Ok(Stmt::CreateProc {
            name,
            params,
            body,
            or_replace,
        })
    }

    fn parse_drop(&mut self) -> Result<Stmt> {
        if self.eat_kw("TABLE") {
            let mut if_exists = false;
            if self.eat_kw("IF") {
                self.expect_kw("EXISTS")?;
                if_exists = true;
            }
            let table = self.table_name()?;
            return Ok(Stmt::DropTable { table, if_exists });
        }
        if self.eat_kw("PROCEDURE") || self.eat_kw("PROC") {
            let name = self.ident()?;
            return Ok(Stmt::DropProc { name });
        }
        Err(self.err("expected TABLE or PROCEDURE"))
    }

    fn parse_exec(&mut self) -> Result<Stmt> {
        let name = self.ident()?;
        let mut args = Vec::new();
        if !self.at_eof() && !self.check_tok(&Tok::Semi) {
            loop {
                // Allow `@name =` prefixes (ignored: positional binding).
                if matches!(self.peek(), Tok::Param(_)) && self.peek2() == &Tok::Eq {
                    self.advance();
                    self.advance();
                }
                args.push(self.parse_expr()?);
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
        }
        Ok(Stmt::Exec { name, args })
    }

    // -- SELECT ----------------------------------------------------------------

    fn parse_select(&mut self) -> Result<SelectStmt> {
        self.parse_select_into(false).map(|(q, _, _)| q)
    }

    /// A SELECT, its `INTO` target if `allow_into` (statement level) and
    /// the SQL names one, and the byte offset just past the select list's
    /// last token, where `INTO` goes.
    fn parse_select_into(
        &mut self,
        allow_into: bool,
    ) -> Result<(SelectStmt, Option<TableName>, usize)> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        let _ = self.eat_kw("ALL");
        let mut top = None;
        if self.eat_kw("TOP") {
            match self.advance() {
                Tok::Int(n) if n >= 0 => top = Some(n as u64),
                _ => return Err(self.err("expected integer after TOP")),
            }
        }
        let mut items = Vec::new();
        loop {
            items.push(self.parse_select_item()?);
            if !self.eat_tok(&Tok::Comma) {
                break;
            }
        }
        let list_end = self.toks[self.pos - 1].end;
        let into = if allow_into && self.eat_kw("INTO") {
            Some(self.table_name()?)
        } else {
            None
        };
        let mut from = Vec::new();
        if self.eat_kw("FROM") {
            loop {
                from.push(self.parse_table_ref()?);
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            loop {
                group_by.push(self.parse_expr()?);
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    let _ = self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
        }
        // LIMIT n as a synonym for TOP n (applied after ORDER BY).
        if self.eat_kw("LIMIT") {
            match self.advance() {
                Tok::Int(n) if n >= 0 => top = Some(top.unwrap_or(u64::MAX).min(n as u64)),
                _ => return Err(self.err("expected integer after LIMIT")),
            }
        }
        let query = SelectStmt {
            distinct,
            top,
            items,
            from,
            filter,
            group_by,
            having,
            order_by,
        };
        Ok((query, into, list_end))
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.eat_tok(&Tok::Star) {
            return Ok(SelectItem::Wildcard);
        }
        // alias.*
        if let (Tok::Ident(name), Tok::Dot) = (self.peek().clone(), self.peek2().clone()) {
            if self.toks.get(self.pos + 2).map(|t| &t.tok) == Some(&Tok::Star) {
                self.advance();
                self.advance();
                self.advance();
                return Ok(SelectItem::QualifiedWildcard(name));
            }
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Tok::Ident(s) = self.peek().clone() {
            if RESERVED.iter().any(|r| s.eq_ignore_ascii_case(r)) {
                None
            } else {
                self.advance();
                Some(s)
            }
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let mut left = self.parse_table_primary()?;
        loop {
            let outer = if self.check_kw("LEFT") {
                self.advance();
                let _ = self.eat_kw("OUTER");
                self.expect_kw("JOIN")?;
                true
            } else if self.check_kw("INNER") {
                self.advance();
                self.expect_kw("JOIN")?;
                false
            } else if self.check_kw("JOIN") {
                self.advance();
                false
            } else {
                break;
            };
            let right = self.parse_table_primary()?;
            self.expect_kw("ON")?;
            let on = self.parse_expr()?;
            left = TableRef::Join {
                left: Box::new(left),
                right: Box::new(right),
                on,
                outer,
            };
        }
        Ok(left)
    }

    fn parse_table_primary(&mut self) -> Result<TableRef> {
        if self.eat_tok(&Tok::LParen) {
            let q = self.parse_select()?;
            self.expect_tok(&Tok::RParen, ")")?;
            let _ = self.eat_kw("AS");
            let alias = self.ident()?;
            return Ok(TableRef::Derived {
                query: Box::new(q),
                alias,
            });
        }
        let table = self.table_name()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Tok::Ident(s) = self.peek().clone() {
            if RESERVED.iter().any(|r| s.eq_ignore_ascii_case(r)) {
                None
            } else {
                self.advance();
                Some(s)
            }
        } else {
            None
        };
        Ok(TableRef::Table { table, alias })
    }

    // -- expressions -----------------------------------------------------------

    fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut left = self.parse_and()?;
        while self.eat_kw("OR") {
            let right = self.parse_and()?;
            left = Expr::Binary {
                op: BinOp::Or,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut left = self.parse_not()?;
        while self.eat_kw("AND") {
            let right = self.parse_not()?;
            left = Expr::Binary {
                op: BinOp::And,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.check_kw("NOT")
            && !matches!(self.peek2(), Tok::Ident(s) if s.eq_ignore_ascii_case("EXISTS"))
        {
            self.advance();
            return Ok(Expr::Not(Box::new(self.parse_not()?)));
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let left = self.parse_additive()?;
        // Postfix predicates: IS [NOT] NULL, [NOT] LIKE/IN/BETWEEN.
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(left),
                negated,
            });
        }
        let negated = self.eat_kw("NOT");
        if self.eat_kw("LIKE") {
            let pat = self.parse_additive()?;
            return Ok(Expr::Like {
                expr: Box::new(left),
                pattern: Box::new(pat),
                negated,
            });
        }
        if self.eat_kw("BETWEEN") {
            let low = self.parse_additive()?;
            self.expect_kw("AND")?;
            let high = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(left),
                low: Box::new(low),
                high: Box::new(high),
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect_tok(&Tok::LParen, "(")?;
            if self.check_kw("SELECT") {
                let q = self.parse_select()?;
                self.expect_tok(&Tok::RParen, ")")?;
                return Ok(Expr::InSubquery {
                    expr: Box::new(left),
                    query: Box::new(q),
                    negated,
                });
            }
            let mut list = Vec::new();
            loop {
                list.push(self.parse_expr()?);
                if !self.eat_tok(&Tok::Comma) {
                    break;
                }
            }
            self.expect_tok(&Tok::RParen, ")")?;
            return Ok(Expr::InList {
                expr: Box::new(left),
                list,
                negated,
            });
        }
        if negated {
            return Err(self.err("expected LIKE, BETWEEN or IN after NOT"));
        }
        let op = match self.peek() {
            Tok::Eq => BinOp::Eq,
            Tok::Neq => BinOp::Neq,
            Tok::Lt => BinOp::Lt,
            Tok::Le => BinOp::Le,
            Tok::Gt => BinOp::Gt,
            Tok::Ge => BinOp::Ge,
            _ => return Ok(left),
        };
        self.advance();
        let right = self.parse_additive()?;
        Ok(Expr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        })
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut left = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Tok::Plus => BinOp::Add,
                Tok::Minus => BinOp::Sub,
                _ => break,
            };
            self.advance();
            let right = self.parse_multiplicative()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Tok::Star => BinOp::Mul,
                Tok::Slash => BinOp::Div,
                Tok::Percent => BinOp::Mod,
                _ => break,
            };
            self.advance();
            let right = self.parse_unary()?;
            left = Expr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat_tok(&Tok::Minus) {
            return Ok(Expr::Neg(Box::new(self.parse_unary()?)));
        }
        if self.eat_tok(&Tok::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        // EXISTS / NOT EXISTS
        if self.check_kw("NOT")
            && matches!(self.peek2(), Tok::Ident(s) if s.eq_ignore_ascii_case("EXISTS"))
        {
            self.advance();
            self.advance();
            self.expect_tok(&Tok::LParen, "(")?;
            let q = self.parse_select()?;
            self.expect_tok(&Tok::RParen, ")")?;
            return Ok(Expr::Exists {
                query: Box::new(q),
                negated: true,
            });
        }
        if self.check_kw("EXISTS") {
            self.advance();
            self.expect_tok(&Tok::LParen, "(")?;
            let q = self.parse_select()?;
            self.expect_tok(&Tok::RParen, ")")?;
            return Ok(Expr::Exists {
                query: Box::new(q),
                negated: false,
            });
        }
        if self.check_kw("CASE") {
            return self.parse_case();
        }
        if self.check_kw("NULL") {
            self.advance();
            return Ok(Expr::Literal(Value::Null));
        }
        // DATE 'yyyy-mm-dd'
        if self.check_kw("DATE") {
            if let Tok::Str(s) = self.peek2().clone() {
                self.advance();
                self.advance();
                return Ok(Expr::Literal(Value::Date(parse_date(&s)?)));
            }
        }
        match self.peek().clone() {
            Tok::Int(n) => {
                self.advance();
                Ok(Expr::Literal(Value::Int(n)))
            }
            Tok::Float(f) => {
                self.advance();
                Ok(Expr::Literal(Value::Float(f)))
            }
            Tok::Str(s) => {
                self.advance();
                Ok(Expr::Literal(Value::Str(s)))
            }
            Tok::Param(p) => {
                self.advance();
                Ok(Expr::Param(p))
            }
            Tok::LParen => {
                self.advance();
                if self.check_kw("SELECT") {
                    let q = self.parse_select()?;
                    self.expect_tok(&Tok::RParen, ")")?;
                    return Ok(Expr::ScalarSubquery(Box::new(q)));
                }
                let e = self.parse_expr()?;
                self.expect_tok(&Tok::RParen, ")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.advance();
                // Function call?
                if self.check_tok(&Tok::LParen) {
                    self.advance();
                    if self.eat_tok(&Tok::Star) {
                        self.expect_tok(&Tok::RParen, ")")?;
                        return Ok(Expr::Func {
                            name,
                            args: Vec::new(),
                            distinct: false,
                            star: true,
                        });
                    }
                    let distinct = self.eat_kw("DISTINCT");
                    let mut args = Vec::new();
                    if !self.check_tok(&Tok::RParen) {
                        loop {
                            args.push(self.parse_expr()?);
                            if !self.eat_tok(&Tok::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_tok(&Tok::RParen, ")")?;
                    return Ok(Expr::Func {
                        name,
                        args,
                        distinct,
                        star: false,
                    });
                }
                // Qualified column?
                if self.eat_tok(&Tok::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        table: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column { table: None, name })
            }
            _ => Err(self.err("expected expression")),
        }
    }

    fn parse_case(&mut self) -> Result<Expr> {
        self.expect_kw("CASE")?;
        let mut branches = Vec::new();
        while self.eat_kw("WHEN") {
            let cond = self.parse_expr()?;
            self.expect_kw("THEN")?;
            let result = self.parse_expr()?;
            branches.push((cond, result));
        }
        if branches.is_empty() {
            return Err(self.err("CASE requires at least one WHEN"));
        }
        let else_expr = if self.eat_kw("ELSE") {
            Some(Box::new(self.parse_expr()?))
        } else {
            None
        };
        self.expect_kw("END")?;
        Ok(Expr::Case {
            branches,
            else_expr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_select() {
        let s = parse_one("SELECT a, b AS x FROM t WHERE a > 3 ORDER BY b DESC").unwrap();
        let Stmt::Select(q) = s else { panic!() };
        assert_eq!(q.items.len(), 2);
        assert_eq!(q.from.len(), 1);
        assert!(q.filter.is_some());
        assert_eq!(q.order_by.len(), 1);
        assert!(q.order_by[0].desc);
    }

    #[test]
    fn top_and_distinct() {
        let Stmt::Select(q) = parse_one("SELECT DISTINCT TOP 10 * FROM lineitem").unwrap() else {
            panic!()
        };
        assert!(q.distinct);
        assert_eq!(q.top, Some(10));
        assert_eq!(q.items, vec![SelectItem::Wildcard]);
    }

    #[test]
    fn where_0_eq_1_metadata_probe() {
        // The Phoenix metadata trick must parse.
        let s = parse_one("SELECT l_orderkey, l_quantity FROM lineitem WHERE 0=1").unwrap();
        let Stmt::Select(q) = s else { panic!() };
        assert!(matches!(q.filter, Some(Expr::Binary { op: BinOp::Eq, .. })));
    }

    #[test]
    fn joins_and_derived_tables() {
        let s = parse_one(
            "SELECT c_custkey, o_total FROM customer LEFT OUTER JOIN orders \
             ON c_custkey = o_custkey, (SELECT 1 AS one) d WHERE one = 1",
        )
        .unwrap();
        let Stmt::Select(q) = s else { panic!() };
        assert_eq!(q.from.len(), 2);
        assert!(matches!(q.from[0], TableRef::Join { outer: true, .. }));
        assert!(matches!(q.from[1], TableRef::Derived { .. }));
    }

    #[test]
    fn group_having_scalar_subquery() {
        let s = parse_one(
            "SELECT ps_partkey, SUM(ps_supplycost * ps_availqty) AS value \
             FROM partsupp GROUP BY ps_partkey \
             HAVING SUM(ps_supplycost * ps_availqty) > \
             (SELECT SUM(ps_supplycost) * 0.0001 FROM partsupp) \
             ORDER BY value DESC",
        )
        .unwrap();
        let Stmt::Select(q) = s else { panic!() };
        assert_eq!(q.group_by.len(), 1);
        assert!(q.having.as_ref().unwrap().contains_aggregate());
    }

    #[test]
    fn exists_and_not_exists() {
        let s = parse_one(
            "SELECT 1 FROM orders WHERE EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = o_orderkey) \
             AND NOT EXISTS (SELECT 1 FROM lineitem WHERE l_orderkey = -1)",
        )
        .unwrap();
        let Stmt::Select(q) = s else { panic!() };
        let mut exists = 0;
        q.filter.as_ref().unwrap().walk(&mut |e| {
            if matches!(e, Expr::Exists { .. }) {
                exists += 1;
            }
        });
        assert_eq!(exists, 2);
    }

    #[test]
    fn in_list_and_subquery_and_between() {
        parse_one("SELECT 1 FROM t WHERE a IN (1,2,3) AND b NOT IN (SELECT x FROM u) AND c BETWEEN 1 AND 5").unwrap();
        parse_one("SELECT 1 FROM t WHERE a NOT BETWEEN 1 AND 2 AND b NOT LIKE 'x%'").unwrap();
    }

    #[test]
    fn case_when() {
        let s = parse_one(
            "SELECT SUM(CASE WHEN n_name = 'BRAZIL' THEN volume ELSE 0 END) / SUM(volume) FROM t",
        )
        .unwrap();
        let Stmt::Select(q) = s else { panic!() };
        assert!(matches!(q.items[0], SelectItem::Expr { .. }));
    }

    #[test]
    fn insert_forms() {
        let s = parse_one("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')").unwrap();
        assert!(matches!(
            s,
            Stmt::Insert {
                source: InsertSource::Values(ref v),
                ..
            } if v.len() == 2
        ));
        let s = parse_one("INSERT INTO dest SELECT * FROM src WHERE a > 0").unwrap();
        assert!(matches!(
            s,
            Stmt::Insert {
                source: InsertSource::Select(_),
                ..
            }
        ));
    }

    #[test]
    fn update_delete() {
        parse_one("UPDATE stock SET s_quantity = s_quantity - 5 WHERE s_i_id = 3").unwrap();
        parse_one("DELETE FROM new_order WHERE no_o_id = 1").unwrap();
    }

    #[test]
    fn create_table_with_pk() {
        let s = parse_one(
            "CREATE TABLE warehouse (w_id INT PRIMARY KEY, w_name VARCHAR(10) NOT NULL, w_ytd DECIMAL(12,2))",
        )
        .unwrap();
        let Stmt::CreateTable { columns, .. } = s else {
            panic!()
        };
        assert!(columns[0].primary_key);
        assert!(columns[1].not_null);
        assert_eq!(columns[2].dtype, DataType::Float);

        let s2 = parse_one(
            "CREATE TABLE order_line (ol_o_id INT, ol_number INT, PRIMARY KEY (ol_o_id, ol_number))",
        )
        .unwrap();
        let Stmt::CreateTable { primary_key, .. } = s2 else {
            panic!()
        };
        assert_eq!(primary_key, vec!["ol_o_id", "ol_number"]);
    }

    #[test]
    fn temp_tables() {
        let s = parse_one("CREATE TABLE #session_probe (x INT)").unwrap();
        assert!(matches!(s, Stmt::CreateTable { table, .. } if table.temp));
        let s = parse_one("SELECT * FROM #session_probe").unwrap();
        let Stmt::Select(q) = s else { panic!() };
        assert!(
            matches!(&q.from[0], TableRef::Table { table, .. } if table.temp && table.name == "session_probe")
        );
    }

    #[test]
    fn create_procedure_captures_body() {
        let s = parse_one(
            "CREATE PROCEDURE load_result (@lo INT, @hi INT) AS INSERT INTO res SELECT * FROM src WHERE k BETWEEN @lo AND @hi",
        )
        .unwrap();
        let Stmt::CreateProc {
            name, params, body, ..
        } = s
        else {
            panic!()
        };
        assert_eq!(name, "load_result");
        assert_eq!(params.len(), 2);
        assert!(body.starts_with("INSERT INTO res"));
    }

    #[test]
    fn exec_with_args() {
        let s = parse_one("EXEC load_result 1, 100").unwrap();
        assert!(matches!(s, Stmt::Exec { ref args, .. } if args.len() == 2));
        let s = parse_one("EXECUTE p @a = 5, @b = 'x'").unwrap();
        assert!(matches!(s, Stmt::Exec { ref args, .. } if args.len() == 2));
    }

    #[test]
    fn txn_control_and_shutdown() {
        assert_eq!(parse_one("BEGIN TRAN").unwrap(), Stmt::Begin);
        assert_eq!(parse_one("COMMIT").unwrap(), Stmt::Commit);
        assert_eq!(parse_one("ROLLBACK TRANSACTION").unwrap(), Stmt::Rollback);
        assert_eq!(
            parse_one("SHUTDOWN WITH NOWAIT").unwrap(),
            Stmt::Shutdown { nowait: true }
        );
        assert_eq!(
            parse_one("SHUTDOWN").unwrap(),
            Stmt::Shutdown { nowait: false }
        );
        assert_eq!(parse_one("CHECKPOINT").unwrap(), Stmt::Checkpoint);
    }

    #[test]
    fn batches() {
        let v = parse_statements("SELECT 1; SELECT 2;; SELECT 3").unwrap();
        assert_eq!(v.len(), 3);
        assert!(parse_statements("SELECT 1 SELECT 2").is_err());
    }

    #[test]
    fn date_literals() {
        let s = parse_one("SELECT 1 FROM t WHERE d >= DATE '1994-01-01'").unwrap();
        let Stmt::Select(q) = s else { panic!() };
        let mut found = false;
        q.filter.unwrap().walk(&mut |e| {
            if matches!(e, Expr::Literal(Value::Date(_))) {
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn operator_precedence() {
        let Stmt::Select(q) = parse_one("SELECT 1 + 2 * 3").unwrap() else {
            panic!()
        };
        let SelectItem::Expr { expr, .. } = &q.items[0] else {
            panic!()
        };
        // Must parse as 1 + (2*3).
        let Expr::Binary {
            op: BinOp::Add,
            right,
            ..
        } = expr
        else {
            panic!("got {expr:?}")
        };
        assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn select_into_round_trip() {
        for (sql, plain, table) in [
            (
                "SELECT a, SUM(b) AS s INTO phx_res_1_2 FROM t WHERE a > 0 GROUP BY a ORDER BY s DESC",
                "SELECT a, SUM(b) AS s FROM t WHERE a > 0 GROUP BY a ORDER BY s DESC",
                "phx_res_1_2",
            ),
            (
                "SELECT DISTINCT TOP 5 * INTO #hot FROM t",
                "SELECT DISTINCT TOP 5 * FROM t",
                "hot",
            ),
            ("SELECT 1 + 2 INTO one", "SELECT 1 + 2", "one"),
        ] {
            let Stmt::Select(want) = parse_one(plain).unwrap() else {
                panic!("{plain}")
            };
            let Stmt::SelectInto { table: t, query } = parse_one(sql).unwrap() else {
                panic!("{sql}")
            };
            assert_eq!((t.name.as_str(), query), (table, want), "{sql}");
            // The rewrite Phoenix sends parses back to the same statement.
            let target = if sql.contains('#') {
                "#hot".to_string()
            } else {
                table.to_string()
            };
            let rewritten = select_into_sql(&format!("{plain};"), &target).unwrap();
            assert_eq!(parse_one(&rewritten).unwrap(), parse_one(sql).unwrap());
        }
        // A FROM inside a subquery of the select list is not the top-level one.
        assert_eq!(
            select_into_sql("SELECT (SELECT MAX(a) FROM u) AS m FROM t", "r").unwrap(),
            "SELECT (SELECT MAX(a) FROM u) AS m\nINTO r\nFROM t"
        );
        // Line comments before FROM and after the query cannot hide the
        // INTO clause, the FROM clause, or text appended after the rewrite.
        for (sql, want) in [
            ("SELECT a, b -- x\nFROM t", "SELECT a, b\nINTO r\nFROM t"),
            (
                "SELECT a -- x\n, b FROM t -- y; z\nWHERE a > 1 -- trailing",
                "SELECT a -- x\n, b\nINTO r\nFROM t -- y; z\nWHERE a > 1",
            ),
            ("SELECT 7 /* seven */; -- done", "SELECT 7\nINTO r"),
        ] {
            let rewritten = select_into_sql(sql, "r").unwrap();
            assert_eq!(rewritten, want, "{sql}");
            let batch = format!("{rewritten};\nSELECT * FROM r");
            assert_eq!(parse_statements(&batch).unwrap().len(), 2, "{batch}");
        }
        // INTO stays a statement-level clause.
        assert!(parse_one("SELECT a FROM (SELECT a INTO x FROM t) d").is_err());
        assert!(parse_one("INSERT INTO r SELECT a INTO x FROM t").is_err());
        assert!(select_into_sql("SELECT a INTO x FROM t", "r").is_err());
        assert!(select_into_sql("SELECT 1; SELECT 2", "r").is_err());
        assert!(select_into_sql("DELETE FROM t", "r").is_err());
    }

    #[test]
    fn substring_and_year_functions() {
        parse_one("SELECT SUBSTRING(c_phone, 1, 2), YEAR(o_orderdate) FROM t").unwrap();
        parse_one("SELECT COUNT(DISTINCT ps_suppkey), COUNT(*) FROM partsupp").unwrap();
    }
}
