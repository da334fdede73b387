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
use super::select::names_hold;
use super::{ExecCtx, TableSource};
use crate::error::{Error, Result};
use crate::schema::{decode_cols, TableId, TableSchema};
use crate::sql::ast::{BinOp, Expr, TableName};
use crate::storage::heap::{pk_prefix_bytes, row_key_hash, ScanIter};
use crate::storage::RowId;
use crate::txn::locks::LockMode;
use crate::types::{DataType, Row, Value};

/// One table of a FROM clause, or the target of an UPDATE or DELETE,
/// planned for reading: the table resolved, the columns it yields bound,
/// the WHERE filter bound against them, and the access path the filter's
/// conjuncts allow.
pub(crate) struct TableRead {
    /// The resolved table.
    pub source: TableSource,
    /// The columns it yields, qualified by the alias, or else by the
    /// table name: every column, or only those a statement reads.
    pub cols: Vec<BoundCol>,
    /// The path [`TableRead::rows`] opens.
    pub path: AccessPath,
    /// The positions of `cols` in the table's rows, ascending.
    keep: Vec<usize>,
    filter: Option<BExpr>,
}

impl TableRead {
    /// Resolve `table`, keep the columns whose names are in `reads`
    /// (`None` keeps them all), bind them under `alias` (or the table's
    /// name) and `filter` against them, and choose the access path the
    /// filter's conjuncts allow. `reads` must hold every name `filter`
    /// reads.
    pub(crate) fn plan(
        ctx: &ExecCtx,
        table: &TableName,
        alias: Option<&str>,
        filter: Option<&Expr>,
        reads: Option<&[&str]>,
    ) -> Result<TableRead> {
        let source = ctx.resolve_table(table)?;
        let schema = source.schema();
        let qual = alias.unwrap_or(&table.name);
        let keep: Vec<usize> = (0..schema.arity())
            .filter(|&i| reads.is_none_or(|names| names_hold(names, &schema.columns[i].name)))
            .collect();
        let cols: Vec<BoundCol> = keep
            .iter()
            .map(|&i| {
                let c = &schema.columns[i];
                BoundCol::new(Some(qual.to_string()), c.name.clone(), c.dtype)
            })
            .collect();
        let bound = filter
            .map(|f| Binder::new(ctx, vec![cols.clone()]).bind(f))
            .transpose()?;
        let conjuncts = filter.map(split_conjuncts).unwrap_or_default();
        let path = choose(ctx, schema, &conjuncts);
        Ok(TableRead {
            source,
            cols,
            path,
            keep,
            filter: bound,
        })
    }

    /// A whole row of the table cut to the columns this read yields.
    pub(crate) fn project(&self, row: &[Value]) -> Row {
        self.keep.iter().map(|&i| row[i].clone()).collect()
    }

    /// Whether `row`, cut to this read's columns, passes the filter.
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
    /// order, cut to this read's columns. Each row is decoded, only in
    /// those columns, from the scan's page copy into one reused scratch
    /// row that the filter reads; an accepted row is cloned out at its
    /// exact width. Every other column is still checked as
    /// [`crate::schema::decode_row`] checks it. The stream owns
    /// everything it reads through, so a lazy cursor can carry it across
    /// calls. Callers stop at its first error.
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
        let mut scratch = vec![Value::Null; self.keep.len()];
        let mut next = move || -> Result<Option<(RowId, Row)>> {
            while let Some(raw) = scan.next_raw() {
                let (rid, bytes) = raw?;
                if self.filter.is_none() {
                    let mut row = vec![Value::Null; self.keep.len()];
                    decode_cols(bytes, &self.keep, &mut row)?;
                    return Ok(Some((rid, row)));
                }
                decode_cols(bytes, &self.keep, &mut scratch)?;
                if self.accepts(&ctx, &scratch)? {
                    return Ok(Some((rid, scratch.clone())));
                }
            }
            Ok(None)
        };
        Ok(std::iter::from_fn(move || next().transpose()))
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
