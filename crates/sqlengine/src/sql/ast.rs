//! Abstract syntax tree for the engine's SQL dialect.
//!
//! Variant and field names mirror the SQL grammar directly; per-field doc
//! comments would repeat the names, so lints for them are allowed off.
#![allow(missing_docs)]

use crate::types::{DataType, Value};

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Select(SelectStmt),
    /// `SELECT <items> INTO <table> FROM …`: create `table` from the
    /// query's output columns and load its rows, in one statement.
    SelectInto {
        table: TableName,
        query: SelectStmt,
    },
    Insert {
        table: TableName,
        columns: Option<Vec<String>>,
        source: InsertSource,
    },
    Update {
        table: TableName,
        sets: Vec<(String, Expr)>,
        filter: Option<Expr>,
    },
    Delete {
        table: TableName,
        filter: Option<Expr>,
    },
    CreateTable {
        table: TableName,
        columns: Vec<ColumnDef>,
        primary_key: Vec<String>,
    },
    DropTable {
        table: TableName,
        if_exists: bool,
    },
    CreateProc {
        name: String,
        params: Vec<(String, DataType)>,
        /// Raw body text, stored verbatim in the catalog and re-parsed at
        /// EXEC time with parameters bound.
        body: String,
        or_replace: bool,
    },
    DropProc {
        name: String,
    },
    Exec {
        name: String,
        args: Vec<Expr>,
    },
    Begin,
    Commit,
    Rollback,
    /// `SHUTDOWN [WITH NOWAIT]` — crash the server, losing volatile state.
    Shutdown {
        nowait: bool,
    },
    Checkpoint,
}

/// Table reference by name; `temp` marks `#name` session-local tables.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableName {
    pub name: String,
    pub temp: bool,
}

impl TableName {
    pub fn normal(name: impl Into<String>) -> Self {
        TableName {
            name: name.into(),
            temp: false,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    Values(Vec<Vec<Expr>>),
    Select(Box<SelectStmt>),
}

#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub dtype: DataType,
    pub not_null: bool,
    pub primary_key: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub distinct: bool,
    pub top: Option<u64>,
    pub items: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub filter: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderItem>,
}

#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    Expr {
        expr: Expr,
        alias: Option<String>,
    },
}

#[derive(Debug, Clone, PartialEq)]
pub struct OrderItem {
    pub expr: Expr,
    pub desc: bool,
}

#[derive(Debug, Clone, PartialEq)]
pub enum TableRef {
    Table {
        table: TableName,
        alias: Option<String>,
    },
    /// Derived table: `(SELECT ...) AS alias`.
    Derived {
        query: Box<SelectStmt>,
        alias: String,
    },
    /// `left LEFT [OUTER] JOIN right ON cond` (also INNER JOIN).
    Join {
        left: Box<TableRef>,
        right: Box<TableRef>,
        on: Expr,
        outer: bool,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
}

impl BinOp {
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Neq | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Literal(Value),
    Column {
        table: Option<String>,
        name: String,
    },
    /// `@name` — bound at EXEC time.
    Param(String),
    Neg(Box<Expr>),
    Not(Box<Expr>),
    Binary {
        op: BinOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    InSubquery {
        expr: Box<Expr>,
        query: Box<SelectStmt>,
        negated: bool,
    },
    Exists {
        query: Box<SelectStmt>,
        negated: bool,
    },
    ScalarSubquery(Box<SelectStmt>),
    Case {
        branches: Vec<(Expr, Expr)>,
        else_expr: Option<Box<Expr>>,
    },
    /// Function call: scalar (`YEAR`, `SUBSTRING`, ...) or aggregate
    /// (`SUM`, `COUNT`, `AVG`, `MIN`, `MAX`); `COUNT(*)` has empty args
    /// and `star = true`.
    Func {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
        star: bool,
    },
}

impl Expr {
    /// Walk the expression tree (pre-order), not descending into subqueries.
    pub fn walk<'a>(&'a self, f: &mut impl FnMut(&'a Expr)) {
        f(self);
        match self {
            Expr::Neg(e) | Expr::Not(e) => e.walk(f),
            Expr::Binary { left, right, .. } => {
                left.walk(f);
                right.walk(f);
            }
            Expr::Like { expr, pattern, .. } => {
                expr.walk(f);
                pattern.walk(f);
            }
            Expr::IsNull { expr, .. } => expr.walk(f),
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.walk(f);
                low.walk(f);
                high.walk(f);
            }
            Expr::InList { expr, list, .. } => {
                expr.walk(f);
                for e in list {
                    e.walk(f);
                }
            }
            Expr::InSubquery { expr, .. } => expr.walk(f),
            Expr::Case {
                branches,
                else_expr,
            } => {
                for (c, r) in branches {
                    c.walk(f);
                    r.walk(f);
                }
                if let Some(e) = else_expr {
                    e.walk(f);
                }
            }
            Expr::Func { args, .. } => {
                for a in args {
                    a.walk(f);
                }
            }
            _ => {}
        }
    }

    /// True if the expression contains an aggregate function call
    /// (not descending into subqueries).
    pub fn contains_aggregate(&self) -> bool {
        let mut found = false;
        self.walk(&mut |e| {
            if let Expr::Func { name, .. } = e {
                if is_aggregate_name(name) {
                    found = true;
                }
            }
        });
        found
    }
}

/// Aggregate function names recognised by the planner.
pub fn is_aggregate_name(name: &str) -> bool {
    matches!(
        name.to_ascii_uppercase().as_str(),
        "SUM" | "COUNT" | "AVG" | "MIN" | "MAX"
    )
}
