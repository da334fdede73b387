//! The executor's one read of a single table, and the access-path choice
//! behind it: which rows a statement reads and the locks it takes to read
//! them. Every base-table read, whether for the lazy cursor, the
//! materialized scan, an UPDATE or a DELETE, is a [`TableRead`]: it
//! calls [`choose`] when it is planned, then [`open`] and the filter when
//! its rows are read.
//!
//! | path | when | locks (read / write) |
//! |---|---|---|
//! | point | every PK column pinned | table IS + row S / table IX + row X |
//! | prefix | leading PK columns pinned | table S / table X |
//! | full | no leading PK column pinned | table S / table X |
//!
//! A column is *pinned* by a `col = constant` conjunct whose constant
//! coerces exactly to the column's type. A value that does not (`'1'` or
//! `1.5` or NULL against an INT key) ends the usable prefix there, so the
//! index is used only where its byte equality agrees with SQL equality.
//! [`TableRead::rows`] re-applies the whole filter to every row the path
//! yields, so each path returns exactly the rows, in the order, that the
//! full scan would.

use std::cmp::Ordering;
use std::collections::HashMap;

use super::binding::{BExpr, BoundCol};
use super::eval::{eval, split_conjuncts, truthy, Binder, Env};
use super::select::table_columns;
use super::{ExecCtx, TableSource};
use crate::error::{Error, Result};
use crate::schema::{TableId, TableSchema};
use crate::sql::ast::{BinOp, Expr, TableName};
use crate::storage::heap::{pk_prefix_bytes, row_key_hash, ScanIter};
use crate::storage::RowId;
use crate::txn::locks::LockMode;
use crate::types::{DataType, Row, Value};

/// One table of a FROM clause, or the target of an UPDATE or DELETE,
/// planned for reading: the table resolved, its columns bound, the
/// WHERE filter bound against them, and the access path the filter's
/// conjuncts allow.
pub(crate) struct TableRead {
    /// The resolved table.
    pub source: TableSource,
    /// Its columns, qualified by the alias, or else by the table name.
    pub cols: Vec<BoundCol>,
    /// The path [`TableRead::rows`] opens.
    pub path: AccessPath,
    filter: Option<BExpr>,
}

impl TableRead {
    /// Resolve `table`, bind its columns under `alias` (or the table's
    /// name) and `filter` against them, and choose the access path the
    /// filter's conjuncts allow.
    pub(crate) fn plan(
        ctx: &ExecCtx,
        table: &TableName,
        alias: Option<&str>,
        filter: Option<&Expr>,
    ) -> Result<TableRead> {
        let source = ctx.resolve_table(table)?;
        let cols = table_columns(alias.unwrap_or(&table.name), source.schema());
        let bound = filter
            .map(|f| Binder::new(ctx, vec![cols.clone()]).bind(f))
            .transpose()?;
        let conjuncts = filter.map(split_conjuncts).unwrap_or_default();
        let path = choose(ctx, source.schema(), &conjuncts);
        Ok(TableRead {
            source,
            cols,
            path,
            filter: bound,
        })
    }

    /// Whether `row` passes the filter.
    pub(crate) fn accepts(&self, ctx: &ExecCtx, row: &[Value]) -> Result<bool> {
        match &self.filter {
            Some(f) => Ok(truthy(&eval(ctx, &Env::base(row), f)?) == Some(true)),
            None => Ok(true),
        }
    }

    /// The base table's id. A session temp table has none: it is read
    /// from its snapshot, under no lock.
    pub(crate) fn table_id(&self) -> Result<TableId> {
        match &self.source {
            TableSource::Base { meta, .. } => Ok(meta.read().id),
            TableSource::Temp { .. } => {
                Err(Error::Internal("a temp table has no access path".into()))
            }
        }
    }

    /// The executor's one scan-and-filter loop over a base table: take
    /// the locks the path needs to read (`mode` = `Shared`) or write
    /// (`Exclusive`), and stream the rows the filter accepts, in heap
    /// order. The stream owns everything it reads through, so a lazy
    /// cursor can carry it across calls. Callers stop at its first error.
    pub(crate) fn rows(
        self,
        ctx: &ExecCtx,
        mode: LockMode,
    ) -> Result<impl Iterator<Item = Result<(RowId, Row)>> + Send + 'static> {
        let mut scan = open(
            ctx,
            self.table_id()?,
            self.source.schema(),
            &self.path,
            mode,
        )?;
        let ctx = ctx.clone();
        Ok(std::iter::from_fn(move || loop {
            let hit = scan
                .next()?
                .and_then(|(rid, row)| Ok(self.accepts(&ctx, &row)?.then_some((rid, row))));
            if let Some(hit) = hit.transpose() {
                return Some(hit);
            }
        }))
    }
}

/// How a statement reaches a base table's rows.
#[derive(Debug)]
pub(crate) enum AccessPath {
    /// Every key column pinned: one index probe under a row lock.
    Point(Vec<Value>),
    /// The leading key columns pinned: an index range under a table lock.
    Prefix(Vec<Value>),
    /// No leading key column pinned: every heap page under a table lock.
    Full,
}

/// Pick the access path the conjuncts `pushed` allow on a table with
/// `schema`. The key values returned are coerced to the key columns'
/// types.
fn choose(ctx: &ExecCtx, schema: &TableSchema, pushed: &[&Expr]) -> AccessPath {
    let mut pinned: HashMap<usize, Value> = HashMap::new();
    for c in pushed {
        let Expr::Binary {
            op: BinOp::Eq,
            left,
            right,
        } = c
        else {
            continue;
        };
        let (col, lit) = match (&**left, &**right) {
            (Expr::Column { name, .. }, other) | (other, Expr::Column { name, .. }) => {
                match const_value(ctx, other) {
                    Some(v) => (name, v),
                    None => continue,
                }
            }
            _ => continue,
        };
        if let Some(i) = schema.col_index(col) {
            pinned.entry(i).or_insert(lit);
        }
    }
    let mut key = Vec::new();
    for &i in &schema.primary_key {
        match pinned
            .remove(&i)
            .and_then(|v| exact_coerce(v, schema.columns[i].dtype))
        {
            Some(v) => key.push(v),
            None => break,
        }
    }
    if key.is_empty() {
        AccessPath::Full
    } else if key.len() == schema.primary_key.len() {
        AccessPath::Point(key)
    } else {
        AccessPath::Prefix(key)
    }
}

/// `v` coerced to `dtype`, if the coerced value is SQL-equal to `v`.
fn exact_coerce(v: Value, dtype: DataType) -> Option<Value> {
    let c = v.clone().coerce(dtype).ok()?;
    (c.sql_cmp(&v) == Some(Ordering::Equal)).then_some(c)
}

fn const_value(ctx: &ExecCtx, e: &Expr) -> Option<Value> {
    match e {
        Expr::Literal(v) => Some(v.clone()),
        Expr::Neg(inner) => match const_value(ctx, inner)? {
            Value::Int(i) => Some(Value::Int(-i)),
            Value::Float(f) => Some(Value::Float(-f)),
            _ => None,
        },
        Expr::Param(p) => ctx.params.get(&p.to_ascii_lowercase()).cloned(),
        _ => None,
    }
}

/// Take the locks `path` needs to read (`mode` = `Shared`) or write
/// (`Exclusive`) table `table_id`, and open the path's row stream. The
/// stream may hold rows the filter rejects.
fn open(
    ctx: &ExecCtx,
    table_id: TableId,
    schema: &TableSchema,
    path: &AccessPath,
    mode: LockMode,
) -> Result<ScanIter> {
    let metrics = obskit::metrics::global();
    match path {
        AccessPath::Point(key) => {
            metrics.counter("sqlengine.access.point").incr();
            let intent = match mode {
                LockMode::Exclusive => LockMode::IntentionExclusive,
                _ => LockMode::IntentionShared,
            };
            ctx.storage.lock_table(&ctx.txn, table_id, intent)?;
            let key_bytes = pk_prefix_bytes(schema, key)?;
            ctx.storage
                .lock_row(&ctx.txn, table_id, row_key_hash(&key_bytes), mode)?;
            ctx.storage.scan_key_prefix(table_id, key)
        }
        AccessPath::Prefix(key) => {
            metrics.counter("sqlengine.access.prefix").incr();
            ctx.storage.lock_table(&ctx.txn, table_id, mode)?;
            ctx.storage.scan_key_prefix(table_id, key)
        }
        AccessPath::Full => {
            metrics.counter("sqlengine.access.full").incr();
            ctx.storage.lock_table(&ctx.txn, table_id, mode)?;
            ctx.storage.scan(table_id)
        }
    }
}
