//! Access-path choice for one base table: which rows a statement reads
//! and the locks it takes to read them. Every base-table read in the
//! executor, whether for a SELECT, an UPDATE or a DELETE, goes through
//! [`choose`] and [`open`].
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
//! Callers re-apply the whole filter to every row the path yields, so each
//! path returns exactly the rows, in the order, that the full scan would.

use std::cmp::Ordering;
use std::collections::HashMap;

use super::ExecCtx;
use crate::error::Result;
use crate::schema::TableSchema;
use crate::sql::ast::{BinOp, Expr};
use crate::storage::heap::{pk_prefix_bytes, row_key_hash, ScanIter};
use crate::txn::locks::LockMode;
use crate::types::{DataType, Value};

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
pub(crate) fn choose(ctx: &ExecCtx, schema: &TableSchema, pushed: &[&Expr]) -> AccessPath {
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
/// stream may hold rows the caller's filter rejects.
pub(crate) fn open(
    ctx: &ExecCtx,
    table_id: crate::schema::TableId,
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
