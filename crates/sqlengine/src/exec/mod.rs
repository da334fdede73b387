//! Statement execution: DML, DDL, stored procedures, and the SELECT entry
//! points (lazy pipeline for simple scans so results can stream into the
//! server's bounded output buffer; materialized pipeline for everything
//! else).

mod access;
pub mod binding;
pub mod eval;
pub mod select;

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::catalog::TableMeta;
use crate::error::{Error, Result};
use crate::schema::{Column, TableSchema};
use crate::sql::ast::{
    ColumnDef, Expr, InsertSource, SelectItem, SelectStmt, Stmt, TableName, TableRef,
};
use crate::sql::parser::{parse_one, parse_statements};
use crate::storage::heap::DdlBatch;
use crate::storage::{RowId, Storage};
use crate::txn::locks::LockMode;
use crate::txn::TxnHandle;
use crate::types::{DataType, Row, Value};
use access::{AccessPath, TableRead};
use binding::BExpr;
use eval::{eval, Binder, Env};
use select::{
    bind_select_list, constant_false, infer_output_schema, run_select_materialized, statement_reads,
};

/// Session-local temp tables: volatile, they die with the session and
/// with every crash of the server.
#[derive(Default)]
pub struct TempTables {
    /// Tables keyed by lowercased name (without the `#`).
    pub tables: HashMap<String, TempTable>,
}

/// One session-local temp table.
pub struct TempTable {
    /// Declared schema.
    pub schema: TableSchema,
    /// Row storage (no paging/WAL — temp tables are volatile by design).
    /// A read shares it; a write copies it only while a read holds it.
    pub rows: Arc<Vec<Row>>,
}

/// Either a catalog table or a session temp table, resolved for reading.
#[allow(missing_docs)]
pub enum TableSource {
    /// A durable catalog table.
    Base {
        meta: Arc<RwLock<TableMeta>>,
        schema: TableSchema,
    },
    /// A session temp table; a scan reads its rows with
    /// [`ExecCtx::temp_rows`].
    Temp { schema: TableSchema },
}

impl TableSource {
    /// The table's schema.
    pub fn schema(&self) -> &TableSchema {
        match self {
            TableSource::Base { schema, .. } => schema,
            TableSource::Temp { schema, .. } => schema,
        }
    }
}

/// Execution context for one statement.
#[derive(Clone)]
pub struct ExecCtx {
    /// The storage kernel.
    pub storage: Arc<Storage>,
    /// The executing transaction.
    pub txn: Arc<TxnHandle>,
    /// The session's temp tables.
    pub temps: Arc<Mutex<TempTables>>,
    /// Parameters by lowercased name: a procedure's arguments, or, for a
    /// statement of a batch, `@rowcount` (`@@ROWCOUNT`).
    pub params: Arc<HashMap<String, Value>>,
    /// Procedure call depth (recursion guard).
    pub depth: u32,
    /// The DDL of the statement batch this statement belongs to, which
    /// [`crate::Engine::execute`] forces once before the batch returns.
    pub ddl: Arc<Mutex<DdlBatch>>,
}

impl ExecCtx {
    /// Resolve a (possibly temp) table name for reading. A temp table
    /// resolves to its schema alone: binding a statement copies no rows.
    pub fn resolve_table(&self, t: &TableName) -> Result<TableSource> {
        if t.temp {
            let schema = self.with_temp(t, |tt| tt.schema.clone())?;
            Ok(TableSource::Temp { schema })
        } else {
            let meta = self
                .storage
                .catalog
                .resolve(&t.name)
                .ok_or_else(|| Error::NotFound(format!("table {}", t.name)))?;
            let schema = meta.read().schema.clone();
            Ok(TableSource::Base { meta, schema })
        }
    }

    /// The rows of temp table `t`, shared: the temps lock is released
    /// before the caller reads them, so a filter may run subqueries.
    pub fn temp_rows(&self, t: &TableName) -> Result<Arc<Vec<Row>>> {
        self.with_temp(t, |tt| Arc::clone(&tt.rows))
    }

    /// Run `f` on temp table `t` under the session's temps lock.
    fn with_temp<R>(&self, t: &TableName, f: impl FnOnce(&mut TempTable) -> R) -> Result<R> {
        let mut temps = self.temps.lock();
        let tt = temps
            .tables
            .get_mut(&t.name.to_ascii_lowercase())
            .ok_or_else(|| Error::NotFound(format!("temp table #{}", t.name)))?;
        Ok(f(tt))
    }
}

/// Result rows: lazily streamed or fully materialized.
#[allow(missing_docs)]
pub enum RowsSource {
    /// Fully computed rows.
    Materialized(std::vec::IntoIter<Row>),
    /// Rows produced on demand (simple scans).
    Lazy(Box<dyn Iterator<Item = Result<Row>> + Send>),
}

/// A result set with its schema.
pub struct Rows {
    /// Output column names and types.
    pub schema: Vec<Column>,
    /// Row stream.
    pub source: RowsSource,
}

impl Iterator for Rows {
    type Item = Result<Row>;
    fn next(&mut self) -> Option<Self::Item> {
        match &mut self.source {
            RowsSource::Materialized(it) => it.next().map(Ok),
            RowsSource::Lazy(it) => it.next(),
        }
    }
}

/// Statement outcome at the executor level.
#[allow(missing_docs)]
pub enum StmtOutcome {
    /// A result set.
    Rows(Rows),
    /// DML row count.
    Affected(u64),
    /// DDL / control success.
    Ok,
    /// Bubbles up to the server, which crashes or stops the engine.
    Shutdown { nowait: bool },
}

/// Execute one parsed statement. Transaction control (`BEGIN`/`COMMIT`/
/// `ROLLBACK`) is handled by the engine layer, not here.
pub fn execute_stmt(ctx: &ExecCtx, stmt: &Stmt) -> Result<StmtOutcome> {
    match stmt {
        Stmt::Select(q) => Ok(StmtOutcome::Rows(execute_select(ctx, q)?)),
        Stmt::SelectInto { table, query } => exec_select_into(ctx, table, query),
        Stmt::Insert {
            table,
            columns,
            source,
        } => exec_insert(ctx, table, columns.as_deref(), source),
        Stmt::Update {
            table,
            sets,
            filter,
        } => exec_update(ctx, table, sets, filter.as_ref()),
        Stmt::Delete { table, filter } => exec_delete(ctx, table, filter.as_ref()),
        Stmt::CreateTable {
            table,
            columns,
            primary_key,
        } => exec_create_table(ctx, table, columns, primary_key),
        Stmt::DropTable { table, if_exists } => exec_drop_table(ctx, table, *if_exists),
        Stmt::CreateProc {
            name,
            params,
            body,
            or_replace,
        } => {
            let text = render_proc_text(name, params, body);
            ctx.storage
                .create_proc(&mut ctx.ddl.lock(), name, &text, *or_replace)?;
            Ok(StmtOutcome::Ok)
        }
        Stmt::DropProc { name } => {
            ctx.storage.drop_proc(&mut ctx.ddl.lock(), name)?;
            Ok(StmtOutcome::Ok)
        }
        Stmt::Exec { name, args } => exec_procedure(ctx, name, args),
        Stmt::Checkpoint => {
            ctx.storage.checkpoint()?;
            Ok(StmtOutcome::Ok)
        }
        Stmt::Shutdown { nowait } => Ok(StmtOutcome::Shutdown { nowait: *nowait }),
        Stmt::Begin | Stmt::Commit | Stmt::Rollback => Err(Error::Internal(
            "transaction control must be handled by the engine".into(),
        )),
    }
}

/// Canonical self-describing stored-procedure text (what the catalog and
/// WAL persist; re-parsed at EXEC time).
fn render_proc_text(name: &str, params: &[(String, DataType)], body: &str) -> String {
    let plist = params
        .iter()
        .map(|(n, t)| format!("@{n} {t}"))
        .collect::<Vec<_>>()
        .join(", ");
    if params.is_empty() {
        format!("CREATE PROCEDURE {name} AS {body}")
    } else {
        format!("CREATE PROCEDURE {name} ({plist}) AS {body}")
    }
}

// ---------------------------------------------------------------------------
// SELECT entry
// ---------------------------------------------------------------------------

/// Execute a SELECT: lazy streaming pipeline when the shape allows it,
/// otherwise the materializing pipeline. A false constant conjunct is
/// checked before that choice: such a query takes the materializing
/// pipeline, which answers it from its schema alone, so neither pipeline
/// opens a scan for it.
pub fn execute_select(ctx: &ExecCtx, q: &SelectStmt) -> Result<Rows> {
    if !constant_false(ctx, q)? {
        if let Some(rows) = try_lazy_select(ctx, q)? {
            return Ok(rows);
        }
    }
    let rel = run_select_materialized(ctx, q, &[], None)?;
    let schema = rel
        .cols
        .iter()
        .map(|c| Column::new(c.name.clone(), c.dtype))
        .collect();
    Ok(Rows {
        schema,
        source: RowsSource::Materialized(rel.rows.into_iter()),
    })
}

/// Lazy pipeline: one base table, no grouping/ordering/distinct, no
/// subqueries, and no point read. Produces rows on demand so a `TOP N`
/// scan into a full network buffer suspends exactly as the paper
/// describes.
fn try_lazy_select(ctx: &ExecCtx, q: &SelectStmt) -> Result<Option<Rows>> {
    let [TableRef::Table { table, alias }] = q.from.as_slice() else {
        return Ok(None);
    };
    if table.temp
        || !q.group_by.is_empty()
        || q.having.is_some()
        || !q.order_by.is_empty()
        || q.distinct
    {
        return Ok(None);
    }
    // No aggregates or subqueries anywhere.
    let blocked = |e: &Expr| {
        let mut found = e.contains_aggregate();
        e.walk(&mut |n| {
            found |= matches!(
                n,
                Expr::Exists { .. } | Expr::InSubquery { .. } | Expr::ScalarSubquery(_)
            );
        });
        found
    };
    let exprs = q.items.iter().filter_map(|it| match it {
        SelectItem::Expr { expr, .. } => Some(expr),
        _ => None,
    });
    if exprs.chain(&q.filter).any(blocked) {
        return Ok(None);
    }

    let reads = statement_reads(q);
    let read = TableRead::plan(
        ctx,
        table,
        alias.as_deref(),
        q.filter.as_ref(),
        reads.as_deref(),
    )?;
    // Primary-key point queries go through the materialized path: a lazy
    // cursor would keep its row lock until the client drains it.
    if matches!(read.path, AccessPath::Point(_)) {
        return Ok(None);
    }
    let binder = Binder::new(ctx, vec![read.cols.clone()]);
    let from_order: Vec<usize> = (0..read.cols.len()).collect();
    let out = bind_select_list(&binder, &read.cols, &from_order, &q.items)?;
    let schema = out
        .iter()
        .map(|(e, name)| Column::new(name.clone(), e.dtype()))
        .collect();
    let ctx2 = ctx.clone();
    let project = move |row: Result<(RowId, Row)>| {
        let (_, row) = row?;
        let env = Env::base(&row);
        out.iter().map(|(e, _)| eval(&ctx2, &env, e)).collect()
    };
    // `take` stops the scan once a TOP N is satisfied instead of
    // draining the table.
    let rows = read
        .rows(ctx, LockMode::Shared)?
        .map(project)
        .take(q.top.map_or(usize::MAX, |n| n as usize));
    Ok(Some(Rows {
        schema,
        source: RowsSource::Lazy(Box::new(rows)),
    }))
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

fn exec_insert(
    ctx: &ExecCtx,
    table: &TableName,
    columns: Option<&[String]>,
    source: &InsertSource,
) -> Result<StmtOutcome> {
    // Produce the source rows first (the SELECT may scan other tables).
    let src_rows: Vec<Row> = match source {
        InsertSource::Values(rows) => {
            let binder = Binder::new(ctx, vec![Vec::new()]);
            let empty: Row = Vec::new();
            let env = Env::base(&empty);
            rows.iter()
                .map(|exprs| {
                    exprs
                        .iter()
                        .map(|e| eval(ctx, &env, &binder.bind(e)?))
                        .collect::<Result<Row>>()
                })
                .collect::<Result<_>>()?
        }
        // Use the full SELECT entry point so simple TOP-N scans take the
        // lazy pipeline and stop early instead of materializing the whole
        // table first.
        InsertSource::Select(q) => execute_select(ctx, q)?.collect::<Result<Vec<Row>>>()?,
    };
    insert_rows(ctx, table, columns, src_rows)
}

/// `SELECT … INTO`: run the query, then create the table from its output
/// schema and load the rows. The query runs first, so one that fails
/// leaves no table behind.
fn exec_select_into(ctx: &ExecCtx, table: &TableName, q: &SelectStmt) -> Result<StmtOutcome> {
    let columns = select_into_columns(&infer_output_schema(ctx, q)?);
    let rows = execute_select(ctx, q)?.collect::<Result<Vec<Row>>>()?;
    exec_create_table(ctx, table, &columns, &[])?;
    faultkit::crashpoint!("persist.create");
    let loaded = insert_rows(ctx, table, None, rows)?;
    faultkit::crashpoint!("persist.materialize");
    Ok(loaded)
}

/// The columns `SELECT … INTO` gives its table, from the query's output
/// schema: an empty name becomes `c<i>`, and a name that repeats an
/// earlier one (ignoring case) becomes `<name>_<i>`, with `i` counting
/// from 1. Every column is nullable and there is no primary key.
pub fn select_into_columns(schema: &[Column]) -> Vec<ColumnDef> {
    let mut seen = HashSet::new();
    schema
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let mut name = if c.name.is_empty() {
                format!("c{}", i + 1)
            } else {
                c.name.clone()
            };
            if !seen.insert(name.to_ascii_lowercase()) {
                name = format!("{name}_{}", i + 1);
                seen.insert(name.to_ascii_lowercase());
            }
            ColumnDef {
                name,
                dtype: c.dtype,
                not_null: false,
                primary_key: false,
            }
        })
        .collect()
}

/// Write `src_rows` into `table`, through the optional column list.
fn insert_rows(
    ctx: &ExecCtx,
    table: &TableName,
    columns: Option<&[String]>,
    src_rows: Vec<Row>,
) -> Result<StmtOutcome> {
    let schema = ctx.resolve_table(table)?.schema().clone();
    // Map through the optional column list.
    let positions: Vec<usize> = match columns {
        Some(cols) => cols
            .iter()
            .map(|c| {
                schema
                    .col_index(c)
                    .ok_or_else(|| Error::Semantic(format!("unknown column {c}")))
            })
            .collect::<Result<_>>()?,
        None => (0..schema.arity()).collect(),
    };

    let mut full_rows = Vec::with_capacity(src_rows.len());
    for r in src_rows {
        if r.len() != positions.len() {
            return Err(Error::Semantic(format!(
                "INSERT expects {} values, got {}",
                positions.len(),
                r.len()
            )));
        }
        let mut full = vec![Value::Null; schema.arity()];
        for (v, &p) in r.into_iter().zip(&positions) {
            full[p] = v;
        }
        full_rows.push(schema.conform(full)?);
    }

    if table.temp {
        let n = full_rows.len();
        ctx.with_temp(table, |tt| Arc::make_mut(&mut tt.rows).extend(full_rows))?;
        return Ok(StmtOutcome::Affected(n as u64));
    }

    let meta = ctx
        .storage
        .catalog
        .resolve(&table.name)
        .ok_or_else(|| Error::NotFound(format!("table {}", table.name)))?;
    let table_id = meta.read().id;
    if schema.primary_key.is_empty() {
        // No row identity to lock: exclusive table lock.
        ctx.storage
            .lock_table(&ctx.txn, table_id, LockMode::Exclusive)?;
    } else {
        ctx.storage
            .lock_table(&ctx.txn, table_id, LockMode::IntentionExclusive)?;
        for row in &full_rows {
            if let Some(kb) = crate::storage::heap::pk_key_bytes(&schema, row) {
                ctx.storage.lock_row(
                    &ctx.txn,
                    table_id,
                    crate::storage::heap::row_key_hash(&kb),
                    LockMode::Exclusive,
                )?;
            }
        }
    }
    for row in &full_rows {
        ctx.storage.insert_row(&ctx.txn, table_id, row)?;
    }
    Ok(StmtOutcome::Affected(full_rows.len() as u64))
}

fn exec_update(
    ctx: &ExecCtx,
    table: &TableName,
    sets: &[(String, Expr)],
    filter: Option<&Expr>,
) -> Result<StmtOutcome> {
    let mut read = TableRead::plan(ctx, table, None, filter, None)?;
    let schema = read.source.schema().clone();
    let binder = Binder::new(ctx, vec![read.cols.clone()]);
    let bsets: Vec<(usize, BExpr)> = sets
        .iter()
        .map(|(c, e)| {
            let idx = schema
                .col_index(c)
                .ok_or_else(|| Error::Semantic(format!("unknown column {c}")))?;
            Ok((idx, binder.bind(e)?))
        })
        .collect::<Result<_>>()?;
    let new_row = |row: &Row| -> Result<Row> {
        let mut new_row = row.clone();
        for (idx, e) in &bsets {
            new_row[*idx] = eval(ctx, &Env::base(row), e)?.coerce(schema.columns[*idx].dtype)?;
        }
        Ok(new_row)
    };

    if table.temp {
        // Evaluated on the shared rows, outside the temps lock, since the
        // expressions may read temp tables; then written under the lock.
        let mut changes = Vec::new();
        for (i, row) in ctx.temp_rows(table)?.iter().enumerate() {
            if read.accepts(ctx, row)? {
                changes.push((i, new_row(row)?));
            }
        }
        let n = changes.len() as u64;
        ctx.with_temp(table, |tt| {
            let rows = Arc::make_mut(&mut tt.rows);
            for (i, row) in changes {
                rows[i] = row;
            }
        })?;
        return Ok(StmtOutcome::Affected(n));
    }

    if bsets.iter().any(|(i, _)| schema.primary_key.contains(i)) {
        // The new key's row lock is not taken: lock the table instead.
        if let AccessPath::Point(key) = &read.path {
            read.path = AccessPath::Prefix(key.clone());
        }
    }
    let table_id = read.table_id()?;
    // Collect matches first (updates relocate rows).
    let targets: Vec<_> = read
        .rows(ctx, LockMode::Exclusive)?
        .collect::<Result<_>>()?;
    for (rid, row) in &targets {
        ctx.storage
            .update_row(&ctx.txn, table_id, *rid, &new_row(row)?)?;
    }
    Ok(StmtOutcome::Affected(targets.len() as u64))
}

fn exec_delete(ctx: &ExecCtx, table: &TableName, filter: Option<&Expr>) -> Result<StmtOutcome> {
    let read = TableRead::plan(ctx, table, None, filter, None)?;

    if table.temp {
        // Filtered like UPDATE's: on the shared rows, outside the lock.
        let hits: Vec<bool> = ctx
            .temp_rows(table)?
            .iter()
            .map(|row| read.accepts(ctx, row))
            .collect::<Result<_>>()?;
        let n = hits.iter().filter(|&&hit| hit).count() as u64;
        let mut hits = hits.into_iter();
        ctx.with_temp(table, |tt| {
            Arc::make_mut(&mut tt.rows).retain(|_| !hits.next().unwrap_or(false));
        })?;
        return Ok(StmtOutcome::Affected(n));
    }

    let table_id = read.table_id()?;
    let targets: Vec<_> = read
        .rows(ctx, LockMode::Exclusive)?
        .collect::<Result<_>>()?;
    for (rid, _) in &targets {
        ctx.storage.delete_row(&ctx.txn, table_id, *rid)?;
    }
    Ok(StmtOutcome::Affected(targets.len() as u64))
}

fn exec_create_table(
    ctx: &ExecCtx,
    table: &TableName,
    columns: &[crate::sql::ast::ColumnDef],
    pk_constraint: &[String],
) -> Result<StmtOutcome> {
    let mut cols = Vec::with_capacity(columns.len());
    let mut pk: Vec<usize> = Vec::new();
    for (i, c) in columns.iter().enumerate() {
        cols.push(crate::schema::Column {
            name: c.name.clone(),
            dtype: c.dtype,
            nullable: !c.not_null,
        });
        if c.primary_key {
            pk.push(i);
        }
    }
    for name in pk_constraint {
        let i = columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
            .ok_or_else(|| Error::Semantic(format!("unknown PK column {name}")))?;
        if !pk.contains(&i) {
            pk.push(i);
        }
        cols[i].nullable = false;
    }
    let schema = TableSchema {
        name: table.name.clone(),
        columns: cols,
        primary_key: pk,
    };

    if table.temp {
        let mut temps = ctx.temps.lock();
        let key = table.name.to_ascii_lowercase();
        if temps.tables.contains_key(&key) {
            return Err(Error::AlreadyExists(format!("temp table #{}", table.name)));
        }
        temps.tables.insert(
            key,
            TempTable {
                schema,
                rows: Arc::new(Vec::new()),
            },
        );
        return Ok(StmtOutcome::Ok);
    }

    ctx.storage.create_table(&mut ctx.ddl.lock(), schema)?;
    Ok(StmtOutcome::Ok)
}

fn exec_drop_table(ctx: &ExecCtx, table: &TableName, if_exists: bool) -> Result<StmtOutcome> {
    if table.temp {
        let mut temps = ctx.temps.lock();
        return match temps.tables.remove(&table.name.to_ascii_lowercase()) {
            Some(_) => Ok(StmtOutcome::Ok),
            None if if_exists => Ok(StmtOutcome::Ok),
            None => Err(Error::NotFound(format!("temp table #{}", table.name))),
        };
    }
    match ctx.storage.drop_table(&mut ctx.ddl.lock(), &table.name) {
        Ok(()) => Ok(StmtOutcome::Ok),
        Err(Error::NotFound(_)) if if_exists => Ok(StmtOutcome::Ok),
        Err(e) => Err(e),
    }
}

fn exec_procedure(
    ctx: &ExecCtx,
    name: &str,
    args: &[crate::sql::ast::Expr],
) -> Result<StmtOutcome> {
    if ctx.depth >= 8 {
        return Err(Error::Semantic("procedure nesting too deep".into()));
    }
    let text = ctx
        .storage
        .catalog
        .get_proc(name)
        .ok_or_else(|| Error::NotFound(format!("procedure {name}")))?;
    let Stmt::CreateProc { params, body, .. } = parse_one(&text)? else {
        return Err(Error::Internal("stored procedure text corrupt".into()));
    };
    if args.len() != params.len() {
        return Err(Error::Semantic(format!(
            "procedure {name} expects {} arguments, got {}",
            params.len(),
            args.len()
        )));
    }
    // Evaluate arguments in the caller's context.
    let binder = Binder::new(ctx, vec![Vec::new()]);
    let empty: Row = Vec::new();
    let env = Env::base(&empty);
    let mut bound = HashMap::new();
    for (a, (pname, ptype)) in args.iter().zip(&params) {
        let v = eval(ctx, &env, &binder.bind(a)?)?.coerce(*ptype)?;
        bound.insert(pname.to_ascii_lowercase(), v);
    }
    let sub_ctx = ExecCtx {
        storage: Arc::clone(&ctx.storage),
        txn: Arc::clone(&ctx.txn),
        temps: Arc::clone(&ctx.temps),
        params: Arc::new(bound),
        depth: ctx.depth + 1,
        ddl: Arc::clone(&ctx.ddl),
    };
    let stmts = parse_statements(&body)?;
    let mut last = StmtOutcome::Ok;
    for s in &stmts {
        last = execute_stmt(&sub_ctx, s)?;
        // A lazy result set inside a procedure must be drained so later
        // statements see consistent state.
        if let StmtOutcome::Rows(rows) = last {
            let schema = rows.schema.clone();
            let collected: Result<Vec<Row>> = rows.collect();
            last = StmtOutcome::Rows(Rows {
                schema,
                source: RowsSource::Materialized(collected?.into_iter()),
            });
        }
    }
    Ok(last)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn select_into_column_names_dedup() {
        let schema = [
            Column::new("value", DataType::Float),
            Column::new("value", DataType::Float),
            Column::new("", DataType::Int),
            Column::new("order", DataType::Str),
            Column::new("VALUE_2", DataType::Date),
        ];
        let got: Vec<(String, DataType, bool)> = select_into_columns(&schema)
            .into_iter()
            .map(|c| (c.name, c.dtype, c.not_null || c.primary_key))
            .collect();
        let want = [
            ("value", DataType::Float),
            ("value_2", DataType::Float),
            ("c3", DataType::Int),
            ("order", DataType::Str),
            ("VALUE_2_5", DataType::Date),
        ]
        .map(|(n, t)| (n.to_string(), t, false));
        assert_eq!(got, want);
    }
}
